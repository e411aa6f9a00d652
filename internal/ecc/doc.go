// Package ecc implements the Hamming SECDED(72,64) error-correcting code
// used by commodity ECC DRAM and flash controllers: every 64-bit data word
// carries 8 check bits that allow single-error correction and double-error
// detection.
//
// The simulated memory hierarchy (package mem) uses this codec to decide
// which injected upsets are absorbed by hardware and which escape to
// software — the paper's "reliability frontier" is drawn exactly at the
// boundary where SECDED protection ends.
//
// The code is linear, so the check bits are parities of the data word
// under constant masks. The data bits fill the codeword positions in
// 1..71 that are not powers of two, in order (bit 0 at 3, bit 1 at 5,
// …, bit 63 at 71), and the Hamming parity bit at position 1<<k covers
// every position with bit k set. Mask k therefore has bit i set exactly
// when data bit i's position has bit k set, and check bit k+1 is the
// parity of the data bits under mask k: seven popcounts per word
// instead of one table lookup per set bit. The masks are written out as
// constants, so no table is built at process start; a test rebuilds
// them from the positions.
//
// Encode computes the check byte for a data word; Decode verifies a
// (data, check-bits) pair, returning the data (repaired when possible)
// and a Result classifying the word as clean, corrected (single-bit), or
// detected-uncorrectable (double-bit). Package mem stores one check byte
// per 64-bit word and injects upsets by flipping the stored bits.
//
// Invariants: any single bit flip — in the data or the check bits — is
// corrected and reported; any two flips are detected but not corrected;
// three or more flips are outside the code's guarantees (as in real
// SECDED hardware, they may alias). Decode never mutates its inputs.
package ecc
