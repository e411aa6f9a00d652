// Package telemetryname implements the radlint analyzer that checks
// metric names handed to the telemetry registry.
//
// TELEMETRY.md is the contract between the simulation and the paper's
// tables: every metric is a lowercase snake_case name (e.g.
// ild_detections_total) catalogued with its unit and the figure it
// feeds. Two failure modes defeat that contract — dynamic names built
// at runtime (string concatenation means the catalog can never be
// complete, and snapshot schemas stop being stable across runs) and
// ad-hoc spellings (CamelCase or dotted names that split one family
// across incompatible keys). The analyzer therefore requires the name
// argument of Registry.Counter/Gauge/Histogram to be a
// compile-time constant matching ^[a-z][a-z0-9]*(_[a-z0-9]+)*$.
package telemetryname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"radshield/internal/analysis/radlint"
)

// Analyzer flags dynamic or unconventional telemetry metric names.
var Analyzer = &radlint.Analyzer{
	Name: "telemetryname",
	Doc: "telemetry metric names must be compile-time constant lowercase " +
		"snake_case literals so TELEMETRY.md can catalog the full schema",
	Run: run,
}

// namePattern is the TELEMETRY.md naming convention.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// registryMethods are the (*telemetry.Registry) methods whose first
// argument is a metric name.
var registryMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

const registryType = "radshield/internal/telemetry.Registry"

func run(pass *radlint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || !registryMethods[fn.Name()] || fn.FullName() != "(*"+registryType+")."+fn.Name() {
				return true
			}
			arg := call.Args[0]
			tv := pass.TypesInfo.Types[arg]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"dynamic metric name passed to Registry.%s: names must be compile-time constants so TELEMETRY.md stays complete",
					fn.Name())
				return true
			}
			if name := constant.StringVal(tv.Value); !namePattern.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q violates the TELEMETRY.md convention (lowercase snake_case: %s)",
					name, namePattern)
			}
			return true
		})
	}
	return nil
}
