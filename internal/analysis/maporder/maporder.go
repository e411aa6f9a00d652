// Package maporder implements the radlint analyzer that keeps Go's
// randomized map iteration order out of campaign output.
//
// Go randomizes the iteration order of every `range` over a map, per
// run, by design. A campaign that appends rows, prints, encodes, or
// records order-sensitive telemetry from inside such a loop produces
// output whose byte order differs between two otherwise identical
// runs — the one nondeterminism class that survives perfect seed and
// clock discipline, because it comes from the runtime rather than from
// an API call a taint engine could spot.
//
// The analyzer flags a `range` over a map whose body reaches an
// order-sensitive sink:
//
//   - append — unless the destination slice is passed to a sort
//     function later in the same enclosing function (the sorted-keys
//     idiom: collect, sort, then iterate the sorted slice);
//   - printing/encoding (the fmt family, json/binary encoders);
//   - writes to builders, buffers, and io.Writers (Write* methods);
//   - channel sends;
//   - order-sensitive telemetry (gauge Set last-write-wins, event-ring
//     Append) — counters and histograms are commutative and stay
//     exempt.
//
// Commutative loop bodies — counting, integer accumulation, building
// another map or set — are clean: they cannot observe the order.
package maporder

import (
	"go/ast"
	"go/types"

	"radshield/internal/analysis/radlint"
)

// Analyzer flags order-dependent map iteration.
var Analyzer = &radlint.Analyzer{
	Name: "maporder",
	Doc: "range over a map must not feed campaign output (appends, encoders, " +
		"writers, telemetry) without an intervening key sort: map iteration " +
		"order is randomized per run",
	Run: run,
}

func run(pass *radlint.Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rs) {
				return true
			}
			checkMapRange(pass, rs, enclosingBody(stack))
			return true
		})
	}
	return nil
}

// isMapRange reports whether rs ranges over a map value.
func isMapRange(pass *radlint.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// enclosingBody returns the innermost function body on the walk stack
// (excluding the top node itself), or nil at file scope.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// checkMapRange scans one map-range body for order-sensitive sinks.
func checkMapRange(pass *radlint.Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	mapName := types.ExprString(rs.X)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs && isMapRange(pass, n) {
				return false // nested map range reported on its own
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"range over map %s sends on a channel: map iteration order is randomized per run; iterate sorted keys instead",
				mapName)
		case *ast.CallExpr:
			if dst, path, ok := appendDest(pass, n); ok {
				if dst == nil || !sortedAfter(pass, encl, rs, dst, path) {
					pass.Reportf(n.Pos(),
						"range over map %s appends in iteration order without a later sort: map order is randomized per run; sort the collected values or iterate sorted keys",
						mapName)
				}
				return true
			}
			if kind := sinkCall(pass, n); kind != "" {
				pass.Reportf(n.Pos(),
					"range over map %s feeds %s: map iteration order is randomized per run; iterate sorted keys instead",
					mapName, kind)
			}
		}
		return true
	})
}

// appendDest reports whether call is the append builtin, returning the
// destination's root object (nil when unresolvable) and its rendered
// access path ("keys", "s.Gauges") for field-level comparison.
func appendDest(pass *radlint.Pass, call *ast.CallExpr) (types.Object, string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || id.Name != "append" {
		return nil, "", false
	}
	if len(call.Args) == 0 {
		return nil, "", true
	}
	dst := ast.Unparen(call.Args[0])
	if root := rootIdent(dst); root != nil {
		return pass.TypesInfo.Uses[root], types.ExprString(dst), true
	}
	return nil, "", true
}

// sortedAfter reports whether the append destination is passed to a
// sort function after the range statement, within the enclosing
// function body — the sorted-keys idiom. Both the root object and the
// full access path must match: sorting s.Events does not make appends
// to s.Gauges deterministic.
func sortedAfter(pass *radlint.Pass, encl *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object, path string) bool {
	if encl == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			arg = ast.Unparen(arg)
			// Unwrap one conversion/wrapper layer: sort.Sort(byName(keys)).
			if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
				arg = ast.Unparen(inner.Args[0])
			}
			root := rootIdent(arg)
			if root != nil && pass.TypesInfo.Uses[root] == obj && types.ExprString(arg) == path {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortFuncs are the package-level sorters that make collected map keys
// or values deterministic.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

func isSortCall(pass *radlint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return sortFuncs[fn.Pkg().Path()][fn.Name()]
}

// fmtSinks are the fmt-family functions that emit to an output stream
// in call order. The Sprint/Errorf family is deliberately absent: those
// return values, and ordering only enters through what the caller does
// with the value (an append, a write) — which is flagged there.
var fmtSinks = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// writeMethods are output-stream method names (strings.Builder,
// bytes.Buffer, io.Writer implementations).
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
}

const telemetryPkgPath = "radshield/internal/telemetry"

// telemetrySinks maps telemetry receiver type → order-sensitive
// methods. Counter.Inc/Add and Histogram.Observe are commutative and
// deliberately absent.
var telemetrySinks = map[string]map[string]bool{
	"Gauge": {"Set": true},
	"Ring":  {"Append": true},
}

// sinkCall classifies an order-sensitive call, returning a description
// for the diagnostic ("" when the call is order-safe).
func sinkCall(pass *radlint.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Pkg() == nil {
			return ""
		}
		switch fn.Pkg().Path() {
		case "fmt":
			if fmtSinks[fn.Name()] {
				return "fmt." + fn.Name()
			}
		case "encoding/binary":
			if fn.Name() == "Write" {
				return "binary.Write"
			}
		}
		return ""
	}
	recv := recvTypeName(sig)
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && fn.Name() == "Encode" {
		return "(*json.Encoder).Encode"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == telemetryPkgPath {
		if telemetrySinks[recv][fn.Name()] {
			return "order-sensitive telemetry (telemetry." + recv + ")." + fn.Name()
		}
		return ""
	}
	if writeMethods[fn.Name()] {
		return "an output writer (" + recv + ")." + fn.Name()
	}
	return ""
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// rootIdent unwraps selectors, indexes, stars, slices, and parens down
// to the base identifier, or nil.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		default:
			return nil
		}
	}
}
