// Package radlinttest runs radlint analyzers against golden fixture
// packages, in the style of golang.org/x/tools/go/analysis/analysistest:
// fixture sources live under testdata/src/<importpath>/ and annotate
// the lines where findings are expected with trailing comments of the
// form
//
//	time.Now() // want `reads the host clock`
//
// Each string after "want" is a regular expression; the harness
// requires a one-to-one match between expected and reported findings
// per line. Lines without a want comment must produce no finding —
// which is how the negative fixtures (code outside internal/ and cmd/,
// *_test.go exemption, //radlint:allow suppression) assert silence.
package radlinttest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"radshield/internal/analysis/radlint"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads testdata/src/<path> for each path, runs the analyzer on the
// resulting package, and checks reported findings against the want
// annotations.
func Run(t *testing.T, testdata string, a *radlint.Analyzer, paths ...string) {
	t.Helper()
	loader := &radlint.Loader{
		// Imports that are not module packages resolve from sibling
		// fixture directories, so fixtures can exercise cross-package
		// analysis; documents like TELEMETRY.md resolve from the
		// fixture testdata root.
		FixtureDir: filepath.Join(testdata, "src"),
		RepoRoot:   testdata,
	}
	for _, path := range paths {
		pkg, err := loader.LoadDir(filepath.Join(testdata, "src", filepath.FromSlash(path)), path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		res, err := radlint.Run([]*radlint.Analyzer{a}, []*radlint.Package{pkg}, &radlint.Options{
			Universe: loader.Universe(),
			RepoRoot: loader.Root(),
		})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, pkg, res.Findings)
	}
}

// lineKey identifies one fixture source line.
type lineKey struct {
	file string
	line int
}

func checkWants(t *testing.T, pkg *radlint.Package, diags []radlint.Diagnostic) {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.AllFiles {
		collectWants(t, pkg, f, wants)
	}

	got := map[lineKey][]string{}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d.Message)
	}

	for k, msgs := range got {
		patterns := wants[k]
		for _, msg := range msgs {
			matched := -1
			for i, re := range patterns {
				if re != nil && re.MatchString(msg) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, msg)
				continue
			}
			patterns[matched] = nil // consume
		}
	}
	for k, patterns := range wants {
		for _, re := range patterns {
			if re != nil {
				gotHere := strings.Join(got[k], "; ")
				if gotHere == "" {
					gotHere = "nothing"
				}
				t.Errorf("%s:%d: want finding matching %q, got %s", k.file, k.line, re, gotHere)
			}
		}
	}
}

// collectWants scans a file's comments for `// want "re" ...`
// annotations.
func collectWants(t *testing.T, pkg *radlint.Package, f *ast.File, wants map[lineKey][]*regexp.Regexp) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			// Only literal-bearing comments are annotations; prose that
			// happens to start with "want" is not.
			if rest := strings.TrimSpace(strings.TrimPrefix(text, "want ")); len(rest) == 0 || (rest[0] != '"' && rest[0] != '`') {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			k := lineKey{pos.Filename, pos.Line}
			for _, lit := range wantLiterals(t, k, strings.TrimPrefix(text, "want ")) {
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", k.file, k.line, lit, err)
				}
				wants[k] = append(wants[k], re)
			}
		}
	}
}

var wantLiteral = regexp.MustCompile("^\\s*(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// wantLiterals parses the space-separated Go string literals following
// a want keyword.
func wantLiterals(t *testing.T, k lineKey, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		m := wantLiteral.FindStringSubmatch(s)
		if m == nil {
			t.Fatalf("%s:%d: malformed want annotation near %q", k.file, k.line, s)
		}
		lit, err := strconv.Unquote(m[1])
		if err != nil {
			t.Fatalf("%s:%d: malformed want literal %s: %v", k.file, k.line, m[1], err)
		}
		out = append(out, lit)
		s = s[len(m[0]):]
	}
	return out
}
