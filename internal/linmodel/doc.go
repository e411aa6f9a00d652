// Package linmodel implements ordinary/ridge least-squares linear
// regression, solved by normal equations with Gaussian elimination.
//
// This is the model ILD settled on after rejecting heavier classifiers
// (paper §3.1: "we adopted a simple linear model which was both efficient
// and accurate"): current_draw ≈ w · features + b, trained on quiescent
// ground data before launch, evaluated every millisecond on orbit.
//
// Model is the single type: Fit solves for the weight vector and
// intercept (with optional ridge regularization to keep collinear
// counter features stable), Predict evaluates one feature vector in
// O(dim) — cheap enough for the paper's 1 ms sampling cadence.
//
// Invariants: Fit returns ErrSingular rather than producing garbage
// when the normal equations are rank-deficient and unregularized;
// fitting is deterministic (no stochastic optimizer), and every product
// that feeds a sum is converted explicitly (float64(x*y)), so no
// compiler fuses it into a multiply-add (DESIGN.md §9); a fitted Model
// is immutable, so concurrent Predict calls are safe.
package linmodel
