package ecc

import "math/bits"

// Result classifies the outcome of decoding a (data, check) pair.
type Result int

const (
	// OK means the word decoded cleanly with no detectable error.
	OK Result = iota
	// CorrectedData means a single bit flip in the data word was corrected.
	CorrectedData
	// CorrectedCheck means a single bit flip in the check bits was
	// corrected; the data word was already intact.
	CorrectedCheck
	// Detected means an uncorrectable (double-bit) error was detected.
	// The returned data must not be trusted.
	Detected
)

// codeword layout: positions 1..71 hold the classic Hamming(71,64)
// codeword — parity bits at the seven power-of-two positions (1, 2, 4, 8,
// 16, 32, 64) and the 64 data bits at the remaining positions in
// ascending order. Bit 0 of the check byte is the overall (extension)
// parity across all 72 bits, giving double-error detection; bit k+1
// holds the Hamming parity bit at position 1<<k.

// mask<k> selects the data bits whose codeword position has bit k set:
// the data bits the Hamming parity bit at position 1<<k covers (see
// doc.go for how they are derived).
const (
	mask0 = 0xab55555556aaad5b
	mask1 = 0xcd9999999b33366d
	mask2 = 0xf1e1e1e1e3c3c78e
	mask3 = 0x01fe01fe03fc07f0
	mask4 = 0x01fffe0003fff800
	mask5 = 0x01fffffffc000000
	mask6 = 0xfe00000000000000
)

// syndrome computes the XOR of the codeword positions of all set data
// bits: bit k of that XOR is the parity of the data bits under mask<k>.
// Parity bits are chosen so that the full-codeword syndrome is zero.
func syndrome(data uint64) uint8 {
	return uint8(bits.OnesCount64(data&mask0)&1 |
		bits.OnesCount64(data&mask1)&1<<1 |
		bits.OnesCount64(data&mask2)&1<<2 |
		bits.OnesCount64(data&mask3)&1<<3 |
		bits.OnesCount64(data&mask4)&1<<4 |
		bits.OnesCount64(data&mask5)&1<<5 |
		bits.OnesCount64(data&mask6)&1<<6)
}

// Encode computes the 8 SECDED check bits for a 64-bit data word.
func Encode(data uint64) uint8 {
	// Parity bit at position 1<<k covers all positions whose index has
	// bit k set; setting it to the matching syndrome bit zeroes the
	// syndrome.
	check := syndrome(data) << 1
	// Overall parity across data and the seven Hamming parity bits.
	if parityOverall(data, check) {
		check |= 1
	}
	return check
}

// Decode verifies a (data, check) pair and corrects a single-bit error in
// either the data or the check bits. It returns the (possibly corrected)
// data and a Result describing what happened. When Result is Detected the
// returned data is the raw, untrusted input.
func Decode(data uint64, check uint8) (uint64, Result) {
	// Syndrome: XOR of parity-position values whose stored parity
	// disagrees with the recomputed one, (Encode(data) ^ check) >> 1.
	s := syndrome(data) ^ check>>1
	overallOdd := parityOverall(data, check)

	switch {
	case s == 0 && !overallOdd:
		return data, OK
	case s == 0 && overallOdd:
		// Flip confined to the overall-parity bit itself.
		return data, CorrectedCheck
	case s != 0 && overallOdd:
		// Single-bit error at codeword position s.
		if s&(s-1) == 0 {
			return data, CorrectedCheck // a Hamming parity bit flipped
		}
		if i, ok := dataBitAt(s); ok {
			return data ^ (1 << i), CorrectedData
		}
		// Syndrome points past the codeword: treat as uncorrectable.
		return data, Detected
	default: // s != 0 && !overallOdd
		return data, Detected
	}
}

// parityOverall reports whether the total number of set bits across the
// data word and the full check byte is odd.
func parityOverall(data uint64, check uint8) bool {
	return (bits.OnesCount64(data)+bits.OnesCount8(check))%2 == 1
}

// dataBitAt returns the data-bit index stored at codeword position pos.
func dataBitAt(pos uint8) (int, bool) {
	if pos == 0 || pos > 71 || pos&(pos-1) == 0 {
		return 0, false
	}
	// Data bits fill non-power-of-two positions in order; count how many
	// non-power positions precede pos.
	i := 0
	for p := uint8(1); p < pos; p++ {
		if p&(p-1) != 0 {
			i++
		}
	}
	return i, true
}
