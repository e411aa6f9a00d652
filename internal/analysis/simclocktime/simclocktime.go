// Package simclocktime implements the radlint analyzer that forbids
// host-clock reads (time.Now, time.Sleep, time.Since, time.Tick, and
// friends) in Radshield's library and command code.
//
// The paper's SEL/SEU campaigns — and the telemetry snapshots layered
// on top of them — are only reproducible because every component
// measures time against the simulated board's clock (machine.Now),
// which moves only when the simulation steps the board, or against the
// virtual time the EMR runtime and the campaigns charge. A single stray
// time.Now makes two runs of the same seed diverge, which silently
// invalidates any A/B comparison between schemes. Code that genuinely
// needs the host clock (e.g. radbench's -wallclock profiling mode)
// carries a //radlint:allow simclocktime comment with its
// justification.
package simclocktime

import (
	"go/ast"

	"radshield/internal/analysis/radlint"
)

// Analyzer flags uses of wall-clock time functions.
var Analyzer = &radlint.Analyzer{
	Name: "simclocktime",
	Doc: "forbid time.Now/Sleep/Since/Tick etc. in internal/... and cmd/...: " +
		"deterministic simulation must read simulated time (the machine's clock, machine.Now)",
	Run: run,
}

func run(pass *radlint.Pass) error {
	path := pass.Pkg.Path()
	if !radlint.PathIsInternal(path) && !radlint.PathIsCommand(path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.Uses[id]; radlint.IsWallClockFunc(obj) {
				pass.Reportf(id.Pos(),
					"time.%s reads the host clock; use simulated time (the machine's clock) so runs replay deterministically",
					id.Name)
			}
			return true
		})
	}
	return nil
}
