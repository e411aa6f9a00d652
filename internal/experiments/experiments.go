package experiments

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is a rendered experiment result: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. A column is as wide
// as its longest cell in bytes, and a cell pads with spaces to that
// width counted in runes, as fmt's %-*s pads, so a column holding a
// multi-byte rune (σ, µ) renders as it always has.
func (t *Table) String() string {
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
	pad := func(i int, c string) int { return max(widths[i]-utf8.RuneCountInString(c), 0) }
	rowLen := func(cells []string) int {
		n := 1 // the newline
		for i, c := range cells {
			n += len(c) + pad(i, c)
		}
		return n + 2*max(len(cells)-1, 0)
	}
	// The title, the header, the rule under it and the rows, to the byte.
	size := len("== ") + len(t.Title) + len(" ==\n") + rowLen(t.Header) + 2*max(len(widths)-1, 0) + 1
	for _, w := range widths {
		size += w
	}
	for _, row := range t.Rows {
		size += rowLen(row)
	}

	var b strings.Builder
	b.Grow(size)
	b.WriteString("== ")
	b.WriteString(t.Title)
	b.WriteString(" ==\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for range pad(i, c) {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		for range w {
			b.WriteByte('-')
		}
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named (x, y) data series for figure-style results.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as aligned columns with an ASCII bar per
// point (scaled to the figure-wide y range), one block per series.
func (f *Figure) String() string {
	lo, hi := f.yRange()
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n(%s vs %s)\n", f.Title, f.YLabel, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "-- %s --\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "  %12.4g  %12.6g  |%s\n", s.X[i], s.Y[i], bar(s.Y[i], lo, hi, 32))
		}
	}
	return b.String()
}

// yRange returns the min/max y across all series.
func (f *Figure) yRange() (lo, hi float64) {
	first := true
	for _, s := range f.Series {
		for _, y := range s.Y {
			if first || y < lo {
				lo = y
			}
			if first || y > hi {
				hi = y
			}
			first = false
		}
	}
	return lo, hi
}

// bar renders a value as a proportional ASCII bar within [lo, hi].
func bar(y, lo, hi float64, width int) string {
	if hi <= lo {
		return ""
	}
	n := int((y - lo) / (hi - lo) * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("█", n)
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
