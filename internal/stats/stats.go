package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		//radlint:allow nopanic empty input is a caller bug; documented panic contract
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		//radlint:allow nopanic an out-of-range quantile is a caller bug; documented panic contract
		panic(fmt.Sprintf("stats: Quantile(%v) out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(pos) - float64(lo) // pos is a product: keep it unfused
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys. It panics if the slices differ in length; it returns 0 when either
// series has zero variance.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		//radlint:allow nopanic a length mismatch between series is a caller bug; documented panic contract
		panic(fmt.Sprintf("stats: Correlation length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Confusion accumulates binary-classification outcomes for detector
// accuracy experiments (paper Table 2 and Figure 10).
type Confusion struct {
	TruePositive  int
	TrueNegative  int
	FalsePositive int
	FalseNegative int
}

// Record adds one (predicted, actual) observation.
func (c *Confusion) Record(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TruePositive++
	case predicted && !actual:
		c.FalsePositive++
	case !predicted && actual:
		c.FalseNegative++
	default:
		c.TrueNegative++
	}
}

// FalseNegativeRate returns FN / (FN + TP), or 0 when no positives exist.
func (c *Confusion) FalseNegativeRate() float64 {
	total := c.FalseNegative + c.TruePositive
	if total == 0 {
		return 0
	}
	return float64(c.FalseNegative) / float64(total)
}

// FalsePositiveRate returns FP / (FP + TN), or 0 when no negatives exist.
func (c *Confusion) FalsePositiveRate() float64 {
	total := c.FalsePositive + c.TrueNegative
	if total == 0 {
		return 0
	}
	return float64(c.FalsePositive) / float64(total)
}

// WindowMean maintains a mean over the most recent capacity samples.
// ILD uses it for the "running average difference" between measured and
// predicted current over the 3-second decision window.
type WindowMean struct {
	buf  []float64
	head int
	full bool
	sum  float64
}

// NewWindowMean returns a WindowMean over the given capacity (> 0).
func NewWindowMean(capacity int) *WindowMean {
	if capacity <= 0 {
		//radlint:allow nopanic window capacity is computed from validated detector config
		panic("stats: NewWindowMean: capacity must be positive")
	}
	return &WindowMean{buf: make([]float64, capacity)}
}

// Add pushes x, evicting the oldest sample once the window is full.
func (w *WindowMean) Add(x float64) {
	if w.full {
		w.sum -= w.buf[w.head]
	}
	w.buf[w.head] = x
	w.sum += x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
		w.full = true
	}
}

// Mean returns the mean of the samples currently in the window.
func (w *WindowMean) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	return w.sum / float64(n)
}

// Len returns the number of samples currently in the window.
func (w *WindowMean) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.head
}

// Full reports whether the window has reached capacity.
func (w *WindowMean) Full() bool { return w.full }

// Reset empties the window.
func (w *WindowMean) Reset() {
	w.head, w.full, w.sum = 0, false, 0
}
