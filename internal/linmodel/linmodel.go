package linmodel

import (
	"errors"
	"fmt"
	"math"
)

// Model is a fitted linear regression.
type Model struct {
	Weights   []float64
	Intercept float64
}

// ErrSingular is returned when the normal-equation system cannot be
// solved (e.g. perfectly collinear features and no ridge penalty).
var ErrSingular = errors.New("linmodel: singular system; add ridge regularization or drop collinear features")

// Fit solves min_w Σ (y - Xw - b)² + ridge·‖w‖². X is row-major samples ×
// features; all rows must share a length. ridge ≥ 0 (the intercept is not
// penalized).
func Fit(X [][]float64, y []float64, ridge float64) (*Model, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("linmodel: %d samples vs %d targets", n, len(y))
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("linmodel: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if ridge < 0 {
		return nil, fmt.Errorf("linmodel: negative ridge %v", ridge)
	}

	// Augment with an intercept column: solve (A'A + λI*) w = A'y where
	// A = [X | 1] and λ is zero on the intercept diagonal entry.
	k := d + 1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	aty := make([]float64, k)
	for r := 0; r < n; r++ {
		for i := 0; i < k; i++ {
			xi := 1.0
			if i < d {
				xi = X[r][i]
			}
			aty[i] += float64(xi * y[r])
			for j := i; j < k; j++ {
				xj := 1.0
				if j < d {
					xj = X[r][j]
				}
				ata[i][j] += float64(xi * xj)
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	for i := 0; i < d; i++ {
		ata[i][i] += ridge
	}

	w, err := solve(ata, aty)
	if err != nil {
		return nil, err
	}
	return &Model{Weights: w[:d], Intercept: w[d]}, nil
}

// Predict evaluates the model on one feature vector. It panics on a
// dimension mismatch: feature plumbing bugs should fail loudly in tests.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Weights) {
		//radlint:allow nopanic feature-count mismatch is a plumbing bug; documented panic contract
		panic(fmt.Sprintf("linmodel: Predict with %d features, model has %d", len(x), len(m.Weights)))
	}
	sum := m.Intercept
	for i, w := range m.Weights {
		sum += float64(w * x[i])
	}
	return sum
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a, b), returning x with a·x = b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies: callers may reuse their matrices.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= float64(f * m[col][c])
			}
			x[r] -= float64(f * x[col])
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= float64(m[col][c] * x[c])
		}
		x[col] = sum / m[col][col]
	}
	return x, nil
}
