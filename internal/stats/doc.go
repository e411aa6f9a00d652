// Package stats provides the small set of statistics primitives the
// Radshield experiments need: summary statistics, Pearson correlation,
// a sliding-window mean, and binary-classification confusion counts.
//
// The free functions (Mean, Variance, StdDev, Quantile, Correlation)
// operate on float64 slices. WindowMean is the streaming aggregate the
// detector hot path uses: it maintains a fixed-width window with O(1)
// insert (ILD's 3-second residual average). Confusion tallies
// true/false positives/negatives for the Table 2 accuracy columns.
//
// Invariants: all functions are deterministic and allocation-conscious
// (WindowMean never allocates after construction); edge cases
// are explicit — Mean of no samples is 0, Quantile panics on an empty
// slice or an argument outside [0,1] rather than guessing;
// WindowMean.Full reports whether a full window backs the current
// average, which ILD's declaration logic requires before trusting it;
// every product that feeds a sum is converted explicitly (float64(x*y)),
// so no compiler fuses it into a multiply-add (DESIGN.md §9).
package stats
