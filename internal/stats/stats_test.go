package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile interp = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", got)
	}
	if got := Correlation(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", got)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Record(true, true)   // TP
	c.Record(true, false)  // FP
	c.Record(false, true)  // FN
	c.Record(false, false) // TN
	c.Record(false, false) // TN
	if c.TruePositive != 1 || c.FalsePositive != 1 || c.FalseNegative != 1 || c.TrueNegative != 2 {
		t.Fatalf("confusion counts wrong: %+v", c)
	}
	if got := c.FalseNegativeRate(); got != 0.5 {
		t.Errorf("FNR = %v, want 0.5", got)
	}
	if got := c.FalsePositiveRate(); !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Errorf("FPR = %v, want 1/3", got)
	}
}

func TestConfusionEmptyRates(t *testing.T) {
	var c Confusion
	if c.FalseNegativeRate() != 0 || c.FalsePositiveRate() != 0 {
		t.Fatal("empty confusion rates should be 0")
	}
}

func TestWindowMean(t *testing.T) {
	w := NewWindowMean(3)
	if w.Mean() != 0 || w.Len() != 0 || w.Full() {
		t.Fatal("fresh window not empty")
	}
	w.Add(1)
	w.Add(2)
	if got := w.Mean(); got != 1.5 {
		t.Errorf("partial Mean = %v, want 1.5", got)
	}
	w.Add(3)
	if !w.Full() {
		t.Error("window should be full")
	}
	w.Add(10) // evicts 1
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean after eviction = %v, want 5", got)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d, want 3", w.Len())
	}
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Error("Reset did not empty window")
	}
}

func TestNewWindowMeanInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindowMean(0) did not panic")
		}
	}()
	NewWindowMean(0)
}

// Property: WindowMean over a stream equals the mean of the trailing k
// elements.
func TestPropertyWindowMeanMatchesNaive(t *testing.T) {
	f := func(vals []float64, capSeed uint8) bool {
		if len(vals) == 0 {
			return true
		}
		capacity := int(capSeed%10) + 1
		w := NewWindowMean(capacity)
		for i, v := range vals {
			w.Add(v)
			lo := i + 1 - capacity
			if lo < 0 {
				lo = 0
			}
			var sum float64
			for _, x := range vals[lo : i+1] {
				sum += x
			}
			want := sum / float64(i+1-lo)
			if math.IsNaN(want) || math.IsInf(want, 0) {
				return true // degenerate float inputs: skip
			}
			if !almostEqual(w.Mean(), want, 1e-6*math.Max(1, math.Abs(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
