// Package radlint is the core of Radshield's domain-specific static
// analysis suite: a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) plus a package loader and a suppression mechanism.
//
// Why not x/tools? The repository is deliberately dependency-free (see
// DESIGN.md), and everything the nine Radshield analyzers need —
// parsed ASTs, full type information, and export data for imported
// packages — is available from the standard library: go/parser and
// go/types do the analysis, and `go list -export` supplies compiled
// export data for every dependency so each target package can be
// type-checked from source in isolation.
//
// The analyzers themselves live in sibling packages
// (internal/analysis/simclocktime, seededrand, telemetryname,
// telemetrydoc, emrpurity, armpurity, maporder, schedonly, nopanic),
// the two purity analyzers over the shared whole-program engine in
// internal/analysis/purity, and are registered by cmd/radlint. Each
// enforces one reproducibility or robustness invariant that Radshield's
// evaluation depends on; LINTING.md is the user-facing catalog.
//
// # Suppression
//
// A finding is suppressed by an allow comment on the same line or the
// line directly above:
//
//	//radlint:allow nopanic invariant: negative duration is a caller bug
//	panic("...")
//
// The comment names one analyzer (or a comma-separated list) and MUST
// carry a justification after the name; an allow comment without a
// reason is ignored, so every suppression in the tree documents why
// the invariant does not apply.
//
// # Exemptions
//
// Test files (*_test.go) are never analyzed: campaigns replay
// production code, not test scaffolding, and tests legitimately use
// wall clocks, ad-hoc randomness, and panics. Individual analyzers
// additionally scope themselves to part of the tree (simclocktime and
// schedonly to internal/ and cmd/, nopanic to internal/).
package radlint
