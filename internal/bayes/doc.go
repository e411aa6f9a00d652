// Package bayes implements a Gaussian naive Bayes classifier.
//
// The paper reports that ILD "initially tried classification algorithms
// such as naive bayes and random forest ... but these proved to be
// computationally expensive and imprecise" before settling on a linear
// model. This package exists to reproduce that rejected-alternative
// comparison: the ablate-classifier experiment trains a Classifier on the
// same labelled ground data as the random forest and shows why the paper
// discarded it.
//
// The only type is Classifier: Train estimates a per-class mean and
// variance for every feature (with variance smoothing so constant
// features stay usable), Predict returns the argmax of the Gaussian
// log-likelihoods plus log-priors.
//
// Invariants: Train expects equal-length feature vectors and class
// labels in 0..classes-1; Predict must be called with the same
// dimensionality as training. The classifier is deterministic — no
// randomness is used at train or predict time — and immutable after
// Train, so concurrent prediction is safe. Every product that feeds a
// sum is converted explicitly (float64(x*y)), so no compiler fuses it
// into a multiply-add (DESIGN.md §9).
package bayes
