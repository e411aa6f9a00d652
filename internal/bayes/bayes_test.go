package bayes

import (
	"math/rand"
	"testing"
)

func gaussianBlobs(rng *rand.Rand, n int) ([][]float64, []int) {
	X := make([][]float64, 0, 2*n)
	y := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		X = append(X, []float64{rng.NormFloat64() + 0, rng.NormFloat64() + 0})
		y = append(y, 0)
		X = append(X, []float64{rng.NormFloat64() + 5, rng.NormFloat64() + 5})
		y = append(y, 1)
	}
	return X, y
}

func TestSeparatesGaussianBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := gaussianBlobs(rng, 300)
	c := Train(X, y)
	correct := 0
	for i := 0; i < 200; i++ {
		var x []float64
		want := i % 2
		if want == 0 {
			x = []float64{rng.NormFloat64(), rng.NormFloat64()}
		} else {
			x = []float64{rng.NormFloat64() + 5, rng.NormFloat64() + 5}
		}
		if c.Predict(x) == want {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Fatalf("accuracy = %.3f, want ≥0.95", acc)
	}
}

func TestPriorMatters(t *testing.T) {
	// Heavily imbalanced identical distributions: prediction must follow
	// the prior.
	X := make([][]float64, 0, 100)
	y := make([]int, 0, 100)
	for i := 0; i < 95; i++ {
		X = append(X, []float64{0})
		y = append(y, 0)
	}
	for i := 0; i < 5; i++ {
		X = append(X, []float64{0})
		y = append(y, 1)
	}
	c := Train(X, y)
	if got := c.Predict([]float64{0}); got != 0 {
		t.Fatalf("Predict = %d, want prior-dominant 0", got)
	}
}

func TestZeroVarianceFeatureHandled(t *testing.T) {
	X := [][]float64{{1, 7}, {1, 8}, {2, 7}, {2, 8}}
	y := []int{0, 0, 1, 1}
	c := Train(X, y)
	if got := c.Predict([]float64{1, 7.5}); got != 0 {
		t.Fatalf("Predict = %d, want 0", got)
	}
	if got := c.Predict([]float64{2, 7.5}); got != 1 {
		t.Fatalf("Predict = %d, want 1", got)
	}
}

func TestTrainPanicsOnMalformedInput(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil) },
		func() { Train([][]float64{{1}}, []int{0, 1}) },
		func() { Train([][]float64{{1}, {1, 2}}, []int{0, 1}) },
		func() { Train([][]float64{{1}}, []int{-2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	c := Train([][]float64{{1, 2}}, []int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	c.Predict([]float64{1})
}

func TestMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		for k := 0; k < 3; k++ {
			X = append(X, []float64{rng.NormFloat64() + float64(k*6)})
			y = append(y, k)
		}
	}
	c := Train(X, y)
	for k := 0; k < 3; k++ {
		if got := c.Predict([]float64{float64(k * 6)}); got != k {
			t.Errorf("Predict(center %d) = %d", k, got)
		}
	}
}
