// Package purity is radlint's whole-program determinism engine: it
// computes per-function purity summaries — does this function,
// transitively, read the wall clock, draw from the process-global
// random generator, or touch mutable package-level state? — and
// composes them across package boundaries.
//
// The engine is the shared substrate under the emrpurity and armpurity
// analyzers. Summaries are keyed by the type checker's canonical
// function names (types.Func.FullName), so a function observed through
// compiled export data in one package resolves to the summary computed
// from its source in another: the analysis no longer stops at the
// package boundary the way the original emrpurity taint walk did.
//
// # Fact model
//
// Every function in the analysis universe (each package whose source
// was loaded this invocation — for `radlint ./...` that is the whole
// module) gets a Summary: a bitset of Taints plus bounded Causes, each
// carrying the call chain from the summarized function down to the
// primitive nondeterminism. Callees outside the universe (standard
// library, export-data-only dependencies) are assumed deterministic
// unless they are one of the banned primitives (wall clock, global
// rand) — the same contract the per-package analyzers always applied,
// now stated in one place.
//
// # Mutable package-level state
//
// Not every package-level var is state. A var that is written only at
// initialization (its declaration or a func init), never assigned,
// never incremented, never address-taken, and never the receiver of a
// pointer method is configuration: reading it cannot distinguish two
// runs. The engine computes a per-package mutability index with exactly
// that rule, plus the two conventional exemptions emrpurity always had
// (error sentinels, zero-field stateless values like binary.BigEndian).
// Everything else — assigned globals, counters, pools, registries, any
// var whose address escapes — taints its readers and writers.
//
// # Soundness boundary
//
// The engine follows static call edges only: dynamic dispatch through
// interfaces and calls of function-typed values are not resolved, and
// element mutation through a global slice/map that was passed as an
// argument is not tracked. Those limits are deliberate — they keep the
// analysis fast and its findings actionable — and they are documented
// as part of the determinism contract in LINTING.md.
package purity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"radshield/internal/analysis/radlint"
)

// Taint is a bitset of nondeterminism classes a function can carry.
type Taint uint8

const (
	// WallClock: reads the host clock (time.Now, time.Since, timers).
	WallClock Taint = 1 << iota
	// GlobalRand: draws from the process-global math/rand generator.
	GlobalRand
	// GlobalRead: reads mutable package-level state.
	GlobalRead
	// GlobalWrite: writes package-level state (assignment, ++/--,
	// address-taking, pointer-receiver method call).
	GlobalWrite
	// CapturedWrite: writes a variable captured from an enclosing
	// function. Only reported when a closure is summarized directly
	// (a job literal); a named function has no enclosing scope.
	CapturedWrite
)

// Deterministic is the taint set that must be empty for a campaign arm
// to be a pure function of (config, seed).
const Deterministic = WallClock | GlobalRand | GlobalRead | GlobalWrite | CapturedWrite

func (t Taint) String() string {
	var parts []string
	if t&WallClock != 0 {
		parts = append(parts, "wall-clock read")
	}
	if t&GlobalRand != 0 {
		parts = append(parts, "global randomness")
	}
	if t&GlobalRead != 0 {
		parts = append(parts, "read of mutable package-level state")
	}
	if t&GlobalWrite != 0 {
		parts = append(parts, "write of package-level state")
	}
	if t&CapturedWrite != 0 {
		parts = append(parts, "write to captured variable")
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, ", ")
}

// A Cause is one concrete reason a taint bit is set.
type Cause struct {
	// Taint is the single bit this cause explains.
	Taint Taint
	// Pos is where the taint enters the summarized function: the
	// offending expression for a direct cause, the call site for a
	// propagated one.
	Pos token.Pos
	// What names the primitive nondeterminism, e.g. "time.Now" or
	// "package-level variable emr.seedCounter".
	What string
	// Chain is the call path from the summarized function down to the
	// function containing the primitive; empty for direct causes.
	Chain []string
}

// Describe renders the cause for a diagnostic: "time.Now (wall-clock
// read) via flyGuardArm → machine.New".
func (c Cause) Describe() string {
	s := c.What + " (" + c.Taint.String() + ")"
	if len(c.Chain) > 0 {
		s += " via " + strings.Join(c.Chain, " → ")
	}
	return s
}

// maxCauses bounds the causes recorded per summary; beyond it only the
// taint bits accumulate. Enough to fix findings one sweep at a time
// without unbounded diagnostics.
const maxCauses = 8

// A Summary is the purity fact for one function.
type Summary struct {
	Taints Taint
	Causes []Cause
}

// Pure reports whether the function carries none of the given taints.
func (s *Summary) Pure(mask Taint) bool { return s.Taints&mask == 0 }

// CausesFor returns the recorded causes matching the mask.
func (s *Summary) CausesFor(mask Taint) []Cause {
	var out []Cause
	for _, c := range s.Causes {
		if c.Taint&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}

func (s *Summary) add(c Cause) {
	s.Taints |= c.Taint
	if len(s.Causes) >= maxCauses {
		return
	}
	for _, have := range s.Causes {
		if have.Taint == c.Taint && have.What == c.What {
			return
		}
	}
	s.Causes = append(s.Causes, c)
}

// merge propagates a callee summary into caller at the given call site.
func (s *Summary) merge(callee *Summary, calleeName string, site token.Pos) {
	for _, c := range callee.Causes {
		s.add(Cause{
			Taint: c.Taint,
			Pos:   site,
			What:  c.What,
			Chain: append([]string{calleeName}, c.Chain...),
		})
	}
	s.Taints |= callee.Taints
}

// declSite locates one function's source.
type declSite struct {
	pkg  *radlint.Package
	decl *ast.FuncDecl
}

// Facts is the whole-program fact store for one radlint invocation.
type Facts struct {
	pkgs  map[string]*radlint.Package // import path → source package
	decls map[string]declSite         // types.Func.FullName → source

	sums     map[string]*Summary // memoized per function
	inflight map[string]bool     // recursion guard

	writes map[string]map[string]bool // pkg path → var name → mutated
}

// sharedKey memoizes the fact store across analyzers and packages.
const sharedKey = "purity/facts"

// Of returns the invocation-wide fact store, building it on first use.
// Every analyzer and every package pass shares one store, so the
// whole-program summary work is paid once per radlint run.
func Of(pass *radlint.Pass) *Facts {
	v, _ := pass.Shared.Memo(sharedKey, func() (any, error) {
		return newFacts(pass.Universe), nil
	})
	return v.(*Facts)
}

func newFacts(universe []*radlint.Package) *Facts {
	f := &Facts{
		pkgs:     map[string]*radlint.Package{},
		decls:    map[string]declSite{},
		sums:     map[string]*Summary{},
		inflight: map[string]bool{},
		writes:   map[string]map[string]bool{},
	}
	for _, pkg := range universe {
		f.pkgs[pkg.Path] = pkg
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					f.decls[fn.FullName()] = declSite{pkg, fd}
				}
			}
		}
	}
	return f
}

// HasSource reports whether fn's body is in the analysis universe.
func (f *Facts) HasSource(fn *types.Func) bool {
	_, ok := f.decls[fn.FullName()]
	return ok
}

// Function returns the purity summary for a named function or method.
// Functions outside the universe get the out-of-universe contract: pure
// unless they are a banned primitive.
func (f *Facts) Function(fn *types.Func) *Summary {
	if s := f.primitive(fn, fn.Pos()); s != nil {
		return s
	}
	key := fn.FullName()
	if s, ok := f.sums[key]; ok {
		return s
	}
	site, ok := f.decls[key]
	if !ok {
		return &Summary{} // out of universe: assumed deterministic
	}
	if f.inflight[key] {
		// Recursion back-edge: the root's own taints are already being
		// collected on its frame, so skipping the edge loses nothing
		// for the root (taint union is idempotent). The intermediate
		// summary is not memoized — see summarize.
		return &Summary{}
	}
	f.inflight[key] = true
	sum, complete := f.summarize(site.pkg, site.decl.Body, site.decl.Type, false)
	delete(f.inflight, key)
	if complete {
		f.sums[key] = sum
	}
	return sum
}

// Expr resolves a function-valued expression — a func literal, a named
// function, or a method value — and returns its summary plus a short
// description for diagnostics. The bool reports whether the expression
// was resolvable; unresolvable values (a function-typed variable, a
// call result) return false and must be handled by caller policy.
func (f *Facts) Expr(pkg *radlint.Package, expr ast.Expr) (*Summary, string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		sum, _ := f.summarize(pkg, e.Body, e.Type, true)
		return sum, "function literal", true
	case *ast.Ident, *ast.SelectorExpr:
		id := identOf(e)
		if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
			return f.Function(fn), fn.Name(), true
		}
	}
	return nil, "", false
}

// primitive returns a synthetic summary when fn itself is a banned
// nondeterminism primitive, nil otherwise.
func (f *Facts) primitive(fn *types.Func, pos token.Pos) *Summary {
	if radlint.IsWallClockFunc(fn) {
		s := &Summary{}
		s.add(Cause{Taint: WallClock, Pos: pos, What: "time." + fn.Name()})
		return s
	}
	if radlint.IsGlobalRandFunc(fn) {
		s := &Summary{}
		s.add(Cause{Taint: GlobalRand, Pos: pos, What: "rand." + fn.Name()})
		return s
	}
	return nil
}

// summarize walks one function body. asClosure additionally reports
// writes to variables captured from the enclosing scope. The bool
// result is false when a recursion back-edge was skipped, in which case
// the summary must not be memoized (an outer frame's taints may be
// missing from it).
func (f *Facts) summarize(pkg *radlint.Package, body *ast.BlockStmt, ftype *ast.FuncType, asClosure bool) (*Summary, bool) {
	w := &walker{
		facts:     f,
		pkg:       pkg,
		sum:       &Summary{},
		complete:  true,
		asClosure: asClosure,
		body:      body,
		ftype:     ftype,
	}
	ast.Inspect(body, w.visit)
	return w.sum, w.complete
}

type walker struct {
	facts     *Facts
	pkg       *radlint.Package
	sum       *Summary
	complete  bool
	asClosure bool
	body      *ast.BlockStmt
	ftype     *ast.FuncType

	// writeRoots marks identifiers already reported as write targets so
	// the generic use check does not double-report them as reads.
	writeRoots map[*ast.Ident]bool
}

// local reports whether obj is declared inside the summarized function
// (parameters and named results included).
func (w *walker) local(obj types.Object) bool {
	pos := obj.Pos()
	if w.ftype != nil && w.ftype.Pos() <= pos && pos < w.body.Pos() {
		return true
	}
	return w.body.Pos() <= pos && pos < w.body.End()
}

func (w *walker) visit(n ast.Node) bool {
	info := w.pkg.TypesInfo
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.checkWrite(lhs)
		}
	case *ast.IncDecStmt:
		w.checkWrite(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.checkAddr(n.X)
		}
	case *ast.Ident:
		obj := info.Uses[n]
		if obj == nil {
			return true
		}
		switch obj := obj.(type) {
		case *types.Var:
			if w.writeRoots[n] {
				return true
			}
			if isPackageLevel(obj) && !w.facts.exempt(obj) {
				w.sum.add(Cause{Taint: GlobalRead, Pos: n.Pos(), What: "package-level variable " + varName(obj)})
			}
		case *types.Func:
			if s := w.facts.primitive(obj, n.Pos()); s != nil {
				for _, c := range s.Causes {
					w.sum.add(Cause{Taint: c.Taint, Pos: n.Pos(), What: c.What})
				}
				return true
			}
			if w.facts.HasSource(obj) {
				key := obj.FullName()
				if w.facts.inflight[key] {
					w.complete = false // back-edge skipped; do not memoize
					return true
				}
				sub := w.facts.Function(obj)
				if sub.Taints != 0 {
					w.sum.merge(sub, callName(obj), n.Pos())
				}
			}
		}
	}
	return true
}

// checkWrite handles an assignment/inc-dec target: package-level roots
// are GlobalWrite, captured roots are CapturedWrite (closure mode).
func (w *walker) checkWrite(lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil {
		return
	}
	v, ok := w.pkg.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if isPackageLevel(v) {
		w.markWriteRoot(id)
		w.sum.add(Cause{Taint: GlobalWrite, Pos: id.Pos(), What: "package-level variable " + varName(v)})
		return
	}
	if w.asClosure && !w.local(v) {
		w.markWriteRoot(id)
		w.sum.add(Cause{Taint: CapturedWrite, Pos: id.Pos(), What: "captured variable " + v.Name()})
	}
}

// checkAddr handles &x: taking the address of a package-level var (or a
// field/element of one) lets it escape into mutable aliasing.
func (w *walker) checkAddr(x ast.Expr) {
	id := rootIdent(x)
	if id == nil {
		return
	}
	if v, ok := w.pkg.TypesInfo.Uses[id].(*types.Var); ok && isPackageLevel(v) && !w.facts.exempt(v) {
		w.markWriteRoot(id)
		w.sum.add(Cause{Taint: GlobalWrite, Pos: id.Pos(), What: "address of package-level variable " + varName(v)})
	}
}

func (w *walker) markWriteRoot(id *ast.Ident) {
	if w.writeRoots == nil {
		w.writeRoots = map[*ast.Ident]bool{}
	}
	w.writeRoots[id] = true
}

// exempt reports whether reading package-level var v cannot make two
// runs diverge: error sentinels, zero-field stateless values, and vars
// that are provably never mutated after initialization.
func (f *Facts) exempt(v *types.Var) bool {
	if isErrorSentinel(v) || isStateless(v) {
		return true
	}
	return !f.mutated(v)
}

// mutated reports whether v is written, incremented, address-taken, or
// pointer-method-called anywhere in its defining package outside
// initialization. Vars defined outside the universe are assumed
// mutable (their source is not visible).
func (f *Facts) mutated(v *types.Var) bool {
	if v.Pkg() == nil {
		return true
	}
	path := v.Pkg().Path()
	pkg, ok := f.pkgs[path]
	if !ok {
		return true
	}
	set, ok := f.writes[path]
	if !ok {
		set = buildWriteSet(pkg)
		f.writes[path] = set
	}
	return set[v.Name()]
}

// buildWriteSet scans a package's non-test sources for mutations of its
// package-level vars. Writes inside func init are initialization: init
// runs exactly once, before main, in a deterministic order, so a var
// written only there is configuration, not state.
func buildWriteSet(pkg *radlint.Package) map[string]bool {
	set := map[string]bool{}
	info := pkg.TypesInfo
	mark := func(x ast.Expr) {
		id := rootIdent(x)
		if id == nil {
			return
		}
		if v, ok := info.Uses[id].(*types.Var); ok && isPackageLevel(v) && v.Pkg() == pkg.Types {
			set[v.Name()] = true
		}
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // initialization, not mutation
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.CallExpr:
					// v.M() where M has a pointer receiver implicitly
					// takes &v.
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					selection := info.Selections[sel]
					if selection == nil || selection.Kind() != types.MethodVal {
						break
					}
					if fn, ok := selection.Obj().(*types.Func); ok {
						if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
							if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
								mark(sel.X)
							}
						}
					}
				}
				return true
			})
		}
	}
	return set
}

// rootIdent unwraps selectors, indexes, stars, and parens down to the
// base identifier of an lvalue-ish expression, or nil.
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

func identOf(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// callName renders a callee for taint chains: pkg-qualified for
// cross-package calls, bare for same-package ones would need caller
// context, so always qualify with the package base name.
func callName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := recvTypeName(fn); recv != "" {
		return fn.Pkg().Name() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// varName renders a package-level var pkg-qualified for diagnostics.
func varName(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// isPackageLevel reports whether v is declared at some package's scope.
func isPackageLevel(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isErrorSentinel reports whether v is an error-typed package variable
// (io.EOF style), conventionally immutable and safe to compare against.
func isErrorSentinel(v *types.Var) bool {
	return types.Implements(v.Type(), types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// isStateless reports whether v's type is a zero-field struct: values
// like binary.BigEndian are namespaces for methods, carry no state, and
// cannot make replicas diverge.
func isStateless(v *types.Var) bool {
	s, ok := v.Type().Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}
