// Package armpurity implements the radlint analyzer that proves every
// campaign arm is a pure function of (config, seed).
//
// Every golden table in EXPERIMENTS.md — and the content-addressed
// campaign result cache the ROADMAP plans — rests on the claim that
// re-running a campaign arm with the same configuration and seed
// reproduces the same bytes. This analyzer turns that claim from "the
// goldens happen to be byte-identical" into a compile-time proof
// obligation, using the whole-program purity engine
// (internal/analysis/purity):
//
//   - every exported *Campaign function in an experiments package must
//     be transitively free of wall-clock reads, global randomness, and
//     reads/writes of mutable package-level state — through every
//     callee in the module, across package boundaries;
//   - every job function submitted to the deterministic scheduler
//     (sched.Map) must satisfy the same contract, plus
//     never write variables captured from the enclosing scope (trials
//     run concurrently; a captured write is a race and an ordering
//     dependence at once);
//   - a scheduler job that cannot be statically resolved (a
//     function-typed variable, a call result) is itself a finding: the
//     contract must be provable, not plausible.
//
// Diagnostics carry the call chain from the entry point down to the
// primitive nondeterminism, so an impurity two packages below the
// campaign reads like:
//
//	campaign entry point DemoCampaign must be a pure function of
//	(config, seed): time.Now (wall-clock read) via mid.Sim → leaf.Tick
package armpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"radshield/internal/analysis/purity"
	"radshield/internal/analysis/radlint"
)

// Analyzer proves campaign arms deterministic.
var Analyzer = &radlint.Analyzer{
	Name: "armpurity",
	Doc: "campaign entry points (experiments.*Campaign) and scheduler jobs " +
		"(sched.Map) must be transitively deterministic: no wall clock, " +
		"no global rand, no mutable package-level state — the (config, seed) → " +
		"result contract the campaign result cache keys on",
	Run: run,
}

const schedPkgPath = "radshield/internal/sched"

// entryTaints is the contract for named campaign entry points; jobs
// submitted to the concurrent scheduler additionally must not write
// captured variables.
const entryTaints = purity.WallClock | purity.GlobalRand | purity.GlobalRead | purity.GlobalWrite
const jobTaints = entryTaints | purity.CapturedWrite

func run(pass *radlint.Pass) error {
	facts := purity.Of(pass)
	self := pass.PackageFor(pass.Pkg.Path())
	if self == nil {
		return nil
	}

	if isExperimentsPackage(pass.Pkg.Path()) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !isCampaignEntry(fd.Name.Name) || fd.Body == nil {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := facts.Function(fn)
				for _, c := range sum.CausesFor(entryTaints) {
					pass.Reportf(causePos(c, fd),
						"campaign entry point %s must be a pure function of (config, seed): %s",
						fd.Name.Name, c.Describe())
				}
			}
		}
	}

	// Scheduler jobs: the fn argument of sched.Map, wherever submitted.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, argIdx := schedJobArg(pass, call)
			if name == "" || argIdx >= len(call.Args) {
				return true
			}
			job := call.Args[argIdx]
			sum, desc, resolved := facts.Expr(self, job)
			if !resolved {
				pass.Reportf(job.Pos(),
					"job passed to sched.%s is not statically resolvable: pass a func literal or named function so determinism can be proven",
					name)
				return true
			}
			for _, c := range sum.CausesFor(jobTaints) {
				pass.Reportf(c.Pos,
					"job %s passed to sched.%s must be deterministic: %s", desc, name, c.Describe())
			}
			return true
		})
	}
	return nil
}

// causePos picks the diagnostic position: the cause site when it lies
// inside the entry point's file scope (direct causes and top-frame call
// sites always do), else the declaration name.
func causePos(c purity.Cause, fd *ast.FuncDecl) token.Pos {
	if !c.Pos.IsValid() {
		return fd.Name.Pos()
	}
	return c.Pos
}

// isExperimentsPackage reports whether path names a campaign package:
// the module's internal/experiments or any fixture package ending in
// /experiments.
func isExperimentsPackage(path string) bool {
	return path == "experiments" || strings.HasSuffix(path, "/experiments")
}

// isCampaignEntry reports whether an exported function name declares a
// campaign entry point.
func isCampaignEntry(name string) bool {
	return ast.IsExported(name) && strings.HasSuffix(name, "Campaign")
}

// schedJobArg recognizes sched.Map calls and returns the scheduler
// function name and the index of the job argument; "" when the call is
// not a scheduler submission.
func schedJobArg(pass *radlint.Pass, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != schedPkgPath {
		return "", 0
	}
	if fn.Name() == "Map" {
		// Map[T](n, workers, fn, opts...): the trial function is argument 2.
		return fn.Name(), 2
	}
	return "", 0
}
