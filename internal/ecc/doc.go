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
