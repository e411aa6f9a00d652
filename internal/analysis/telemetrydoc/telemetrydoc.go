// Package telemetrydoc implements the radlint analyzer that closes the
// telemetry catalog loop: every literal metric name handed to a
// telemetry.Registry constructor must be documented in TELEMETRY.md.
//
// telemetryname enforces half of the catalog promise — names are
// compile-time snake_case constants, so the catalog is *possible*.
// This analyzer enforces the other half: the catalog is *complete*. A
// metric that exists in code but not in TELEMETRY.md is invisible to
// anyone auditing which paper table a number feeds, which defeats the
// reason the registry requires constant names in the first place.
//
// The documented-name set is every `backtick-quoted` snake_case token
// in TELEMETRY.md (resolved against the repository root; fixtures get
// their own TELEMETRY.md under testdata). The set is parsed once per
// radlint invocation and shared across packages.
package telemetrydoc

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"

	"radshield/internal/analysis/radlint"
)

// Analyzer flags metric names missing from TELEMETRY.md.
var Analyzer = &radlint.Analyzer{
	Name: "telemetrydoc",
	Doc: "every literal metric name passed to a telemetry.Registry " +
		"constructor must be documented in TELEMETRY.md, keeping the " +
		"catalog complete",
	Run: run,
}

// registryMethods are the (*telemetry.Registry) constructors whose
// first argument is a metric name — the same set telemetryname checks.
var registryMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

const registryType = "radshield/internal/telemetry.Registry"

// catalogFile is the repository document holding the metric catalog.
const catalogFile = "TELEMETRY.md"

// nameToken matches the snake_case metric names the catalog documents
// in backticks.
var nameToken = regexp.MustCompile("`([a-z][a-z0-9]*(?:_[a-z0-9]+)*)`")

// catalog loads and memoizes the documented-name set for this
// invocation.
func catalog(pass *radlint.Pass) (map[string]bool, error) {
	path := filepath.Join(pass.RepoRoot, catalogFile)
	v, err := pass.Shared.Memo("telemetrydoc/"+path, func() (any, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("telemetrydoc: reading catalog: %w", err)
		}
		names := map[string]bool{}
		for _, m := range nameToken.FindAllStringSubmatch(string(data), -1) {
			names[m[1]] = true
		}
		return names, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[string]bool), nil
}

func run(pass *radlint.Pass) error {
	names, err := catalog(pass)
	if err != nil {
		return err
	}
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
				return true // dynamic names are telemetryname's finding
			}
			if name := constant.StringVal(tv.Value); !names[name] {
				pass.Reportf(arg.Pos(),
					"metric %q is not documented in %s: add it to the catalog (name, unit, and the table or figure it feeds)",
					name, catalogFile)
			}
			return true
		})
	}
	return nil
}
