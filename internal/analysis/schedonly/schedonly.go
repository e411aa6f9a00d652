// Package schedonly implements the radlint analyzer that confines raw
// goroutines to the sanctioned concurrency boundaries.
//
// The deterministic campaign scheduler (internal/sched) exists so that
// parallel campaigns render byte-identical output at any worker count:
// all concurrency is funneled through one pool whose collection order
// is defined. A raw `go` statement anywhere else in the simulation
// reintroduces scheduling nondeterminism that no seed can replay — and
// it does so silently, because the output is only *usually* reordered.
//
// The analyzer flags every `go` statement in `internal/...` and
// `cmd/...` outside the sanctioned boundaries:
//
//   - internal/sched — the deterministic pool itself;
//   - internal/groundlink — the downlink over real sockets (its
//     concurrency is against TCP links, not campaign state, and its
//     delivery order is sequenced by the protocol);
//   - cmd/groundstation — the concurrent ground segment server.
//
// Code elsewhere that genuinely needs a goroutine and can argue
// determinism (or operates strictly outside campaign output) carries a
// //radlint:allow schedonly comment with the argument written down.
package schedonly

import (
	"go/ast"

	"radshield/internal/analysis/radlint"
)

// Analyzer flags raw goroutines outside the sanctioned packages.
var Analyzer = &radlint.Analyzer{
	Name: "schedonly",
	Doc: "raw go statements are confined to the sanctioned concurrency " +
		"boundaries (internal/sched, internal/groundlink, cmd/groundstation): " +
		"campaign concurrency must flow through the deterministic pool",
	Run: run,
}

// sanctioned are the packages whose goroutines are part of the
// concurrency design rather than a leak around it.
var sanctioned = map[string]bool{
	"radshield/internal/sched":      true,
	"radshield/internal/groundlink": true,
	"radshield/cmd/groundstation":   true,
}

func run(pass *radlint.Pass) error {
	path := pass.Pkg.Path()
	if sanctioned[path] {
		return nil
	}
	if !radlint.PathIsInternal(path) && !radlint.PathIsCommand(path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw goroutine outside the sanctioned concurrency boundaries: campaign concurrency must flow through the deterministic sched pool (or justify with //radlint:allow schedonly)")
			}
			return true
		})
	}
	return nil
}
