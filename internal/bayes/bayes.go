package bayes

import (
	"fmt"
	"math"
)

// Classifier is a fitted Gaussian naive Bayes model.
type Classifier struct {
	classes  int
	features int
	prior    []float64   // log prior per class
	mean     [][]float64 // class × feature
	variance [][]float64 // class × feature (floored)
}

// varFloor prevents zero variance from producing infinite densities.
const varFloor = 1e-9

// Train fits the classifier on X with integer labels 0..k-1. It panics
// on malformed input, matching package forest's contract.
func Train(X [][]float64, y []int) *Classifier {
	n := len(X)
	if n == 0 || n != len(y) {
		//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
		panic(fmt.Sprintf("bayes: %d samples vs %d labels", n, len(y)))
	}
	d := len(X[0])
	classes := 0
	for i, label := range y {
		if len(X[i]) != d {
			//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
			panic(fmt.Sprintf("bayes: row %d has %d features, want %d", i, len(X[i]), d))
		}
		if label < 0 {
			//radlint:allow nopanic malformed training data is a programming error; the doc contract says panic
			panic(fmt.Sprintf("bayes: negative label %d", label))
		}
		if label+1 > classes {
			classes = label + 1
		}
	}

	c := &Classifier{classes: classes, features: d}
	counts := make([]int, classes)
	c.mean = make([][]float64, classes)
	c.variance = make([][]float64, classes)
	for k := 0; k < classes; k++ {
		c.mean[k] = make([]float64, d)
		c.variance[k] = make([]float64, d)
	}
	for i, row := range X {
		k := y[i]
		counts[k]++
		for j, v := range row {
			c.mean[k][j] += v
		}
	}
	for k := 0; k < classes; k++ {
		if counts[k] == 0 {
			continue
		}
		for j := range c.mean[k] {
			c.mean[k][j] /= float64(counts[k])
		}
	}
	for i, row := range X {
		k := y[i]
		for j, v := range row {
			dlt := v - c.mean[k][j]
			c.variance[k][j] += float64(dlt * dlt)
		}
	}
	c.prior = make([]float64, classes)
	for k := 0; k < classes; k++ {
		if counts[k] == 0 {
			c.prior[k] = math.Inf(-1)
			continue
		}
		for j := range c.variance[k] {
			c.variance[k][j] = c.variance[k][j]/float64(counts[k]) + varFloor
		}
		c.prior[k] = math.Log(float64(counts[k]) / float64(n))
	}
	return c
}

// Predict returns the most probable class for x.
func (c *Classifier) Predict(x []float64) int {
	best, cls := math.Inf(-1), 0
	for k := 0; k < c.classes; k++ {
		if s := c.logPosterior(k, x); s > best {
			best, cls = s, k
		}
	}
	return cls
}

// logPosterior computes log P(class) + Σ log N(x_j; μ, σ²).
func (c *Classifier) logPosterior(k int, x []float64) float64 {
	if len(x) != c.features {
		//radlint:allow nopanic feature-count mismatch is a plumbing bug; documented panic contract
		panic(fmt.Sprintf("bayes: Predict with %d features, model has %d", len(x), c.features))
	}
	s := c.prior[k]
	for j, v := range x {
		va := c.variance[k][j]
		dlt := v - c.mean[k][j]
		s += float64(-0.5*math.Log(2*math.Pi*va)) - dlt*dlt/(2*va)
	}
	return s
}
