package linmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitExactLine(t *testing.T) {
	// y = 3x + 2, noiseless.
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		X = append(X, []float64{float64(i)})
		y = append(y, 3*float64(i)+2)
	}
	m, err := Fit(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-3) > 1e-9 || math.Abs(m.Intercept-2) > 1e-9 {
		t.Fatalf("fit = %+v, want w=3 b=2", m)
	}
	if got := m.Predict([]float64{100}); math.Abs(got-302) > 1e-6 {
		t.Fatalf("Predict(100) = %v, want 302", got)
	}
}

func TestFitMultivariate(t *testing.T) {
	// y = 1.5a − 2b + 0.5c + 4 with small noise.
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b, c := rng.Float64()*10, rng.Float64()*5, rng.Float64()*20
		X = append(X, []float64{a, b, c})
		y = append(y, 1.5*a-2*b+0.5*c+4+rng.NormFloat64()*0.01)
	}
	m, err := Fit(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2, 0.5}
	for i, w := range want {
		if math.Abs(m.Weights[i]-w) > 0.01 {
			t.Errorf("weight[%d] = %v, want %v", i, m.Weights[i], w)
		}
	}
	if math.Abs(m.Intercept-4) > 0.05 {
		t.Errorf("intercept = %v, want 4", m.Intercept)
	}
	var sq float64
	for i, x := range X {
		d := m.Predict(x) - y[i]
		sq += d * d
	}
	if rmse := math.Sqrt(sq / float64(len(X))); rmse > 0.05 {
		t.Errorf("RMSE = %v, want tiny", rmse)
	}
}

func TestCollinearWithoutRidgeFails(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := Fit(X, y, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("collinear fit error = %v, want ErrSingular", err)
	}
	// Ridge makes it solvable.
	m, err := Fit(X, y, 1e-3)
	if err != nil {
		t.Fatalf("ridge fit failed: %v", err)
	}
	if got := m.Predict([]float64{5, 10}); math.Abs(got-5) > 0.05 {
		t.Fatalf("ridge Predict = %v, want ≈5", got)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, 0); err == nil {
		t.Error("empty fit succeeded")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, -1); err == nil {
		t.Error("negative ridge accepted")
	}
}

func TestPredictDimensionMismatchPanics(t *testing.T) {
	m := &Model{Weights: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	m.Predict([]float64{1})
}

// Property: fitting recovers a random linear function exactly (no noise,
// well-conditioned inputs).
func TestPropertyExactRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.NormFloat64() * 5
		}
		b := rng.NormFloat64() * 3
		n := d*3 + 10
		X := make([][]float64, n)
		y := make([]float64, n)
		for r := 0; r < n; r++ {
			X[r] = make([]float64, d)
			y[r] = b
			for i := 0; i < d; i++ {
				X[r][i] = rng.NormFloat64() * 10
				y[r] += w[i] * X[r][i]
			}
		}
		m, err := Fit(X, y, 0)
		if err != nil {
			return false
		}
		for i := range w {
			if math.Abs(m.Weights[i]-w[i]) > 1e-6 {
				return false
			}
		}
		return math.Abs(m.Intercept-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPredict22Features(b *testing.B) {
	// The ILD model size: 4 cores × 5 features + 2 disk features.
	w := make([]float64, 22)
	x := make([]float64, 22)
	for i := range w {
		w[i] = float64(i) * 0.1
		x[i] = float64(i)
	}
	m := &Model{Weights: w, Intercept: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(x)
	}
}
