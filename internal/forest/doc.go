// Package forest implements CART decision trees and random-forest
// classification from scratch.
//
// It plays two roles in the reproduction:
//
//  1. The black-box baseline of Table 2: a random forest trained on
//     current draw alone (the state of the art ILD is compared against,
//     after Dorise et al.), which cannot distinguish compute-induced
//     current from latchup current.
//  2. The feature-selection step of §3.1: the paper chose ILD's Table 1
//     counters by training a random forest on all candidate metrics and
//     keeping the most important features; Forest.Importance reproduces
//     that (mean Gini-decrease importance).
//
// Config sets the ensemble shape (tree count, depth, per-split feature
// sampling, seed); Train grows the ensemble on bootstrap samples;
// Predict majority-votes the trees; Importance averages each feature's
// Gini decrease across all splits.
//
// Layout: a trained forest is one flat array of nodes holding every
// tree depth first, plus each tree's root index. A split's left child is
// the next node and its right child an int32 index; a leaf has a
// negative feature and carries its class. Predict walks the array and
// votes into a stack array, so it allocates nothing for up to eight
// classes; the Table 2 baseline calls it once per telemetry sample.
// Train reuses one set of scratch buffers across the ensemble and finds
// each split by sorting a node's (value, label) pairs once per feature
// and sweeping the candidate thresholds with running class counts.
//
// Invariants: training is deterministic given Config.Seed (bootstrap
// and feature sampling use a private seeded RNG); trees never exceed
// MaxDepth; Predict is pure — the forest is immutable after Train, so
// concurrent prediction is safe. Training matches the original
// pointer-tree implementation, kept as the oracle in reference_test.go,
// bit for bit: the same RNG draws in the same order (bootstrap, one
// permutation per split attempt, left subtree before right), the same
// integer class counts, Gini arithmetic and importance accumulation
// order, and so the same trees, predictions and importances
// (TestMatchesReference, FuzzMatchesReference). Table 2, the classifier
// ablation and feature selection depend on this: their tables, and the
// result-cache entries holding them, must not move. Every product that
// feeds a sum is converted explicitly (float64(x*y)), so no compiler
// fuses it into a multiply-add (DESIGN.md §9).
package forest
