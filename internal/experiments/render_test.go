package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "333") {
		t.Fatalf("render: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
}

// referenceTableString is Table.String as it was written with fmt,
// whose %-*s pads each cell to its column's byte width counted in runes.
func referenceTableString(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// renderCases are tables whose cells are multi-byte (σ, µ), shorter
// than their column, longer than their header, empty, or missing from
// a short row.
var renderCases = []*Table{
	{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}},
	{
		Title:  "Threshold sweep (σ)",
		Header: []string{"Detector", "Quiescent σ (A)", "Latency", "x"},
		Rows: [][]string{
			{"ILD", "3.0σ", "12µs", "a cell far longer than its header"},
			{"forest"},
			{"", "", "", ""},
			{"µµµµµµµµµµ", "σ", "1.5µs", "2"},
			{"ascii only", "0.0123", "4ms", "y"},
		},
	},
	{Title: "bytes wider than runes", Header: []string{"abcde"}, Rows: [][]string{{"µµµ"}, {"µµµµ"}, {"ab"}}},
	{Title: "header only", Header: []string{"one", "two"}},
	{},
}

// TestTableStringMatchesFmt holds Table.String to the fmt rendering it
// replaced, byte for byte.
func TestTableStringMatchesFmt(t *testing.T) {
	for _, tbl := range renderCases {
		if got, want := tbl.String(), referenceTableString(tbl); got != want {
			t.Errorf("table %q renders\n%q\nwant\n%q", tbl.Title, got, want)
		}
	}
}

func TestFigureRenderingBars(t *testing.T) {
	f := &Figure{Title: "F", XLabel: "x", YLabel: "y"}
	s := Series{Name: "s"}
	s.Add(0, 0)
	s.Add(1, 5)
	s.Add(2, 10)
	f.Series = append(f.Series, s)
	out := f.String()
	if !strings.Contains(out, "-- s --") {
		t.Fatalf("missing series block: %q", out)
	}
	// The max point carries the longest bar; the min point an empty one.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var minBar, maxBar int
	for _, ln := range lines {
		if strings.Contains(ln, "|") {
			n := strings.Count(ln, "█")
			if strings.Contains(ln, " 0  ") || strings.HasSuffix(ln, "|") {
				// fallthrough: counts collected below
			}
			if n > maxBar {
				maxBar = n
			}
		}
	}
	_ = minBar
	if maxBar != 32 {
		t.Fatalf("max bar = %d, want full width 32", maxBar)
	}
}

func TestFigureDegenerateRange(t *testing.T) {
	f := &Figure{Title: "flat"}
	s := Series{Name: "s"}
	s.Add(0, 3)
	s.Add(1, 3)
	f.Series = append(f.Series, s)
	if out := f.String(); !strings.Contains(out, "|") {
		t.Fatalf("flat figure failed to render: %q", out)
	}
}

func TestBarClamping(t *testing.T) {
	if bar(5, 0, 10, 10) != strings.Repeat("█", 5) {
		t.Fatal("mid bar")
	}
	if bar(-1, 0, 10, 10) != "" {
		t.Fatal("below-range bar not clamped")
	}
	if bar(99, 0, 10, 10) != strings.Repeat("█", 10) {
		t.Fatal("above-range bar not clamped")
	}
	if bar(1, 5, 5, 10) != "" {
		t.Fatal("degenerate range")
	}
}
