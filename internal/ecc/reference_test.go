package ecc

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The reference codec is the direct form of Encode and Decode, which
// they must match for every input: the syndrome XORs the codeword
// position of each set data bit, and the check byte is assembled one
// parity position at a time.

// dataPositions[i] is the codeword position of data bit i.
var dataPositions = func() [64]uint8 {
	var pos [64]uint8
	i := 0
	for p := uint8(1); p <= 71; p++ {
		if p&(p-1) == 0 { // power of two: parity position
			continue
		}
		pos[i] = p
		i++
	}
	return pos
}()

func TestDataPositionsAreUniqueNonPowers(t *testing.T) {
	seen := map[uint8]bool{}
	for i, p := range dataPositions {
		if p == 0 || p > 71 {
			t.Fatalf("dataPositions[%d] = %d out of range", i, p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("dataPositions[%d] = %d is a parity position", i, p)
		}
		if seen[p] {
			t.Fatalf("dataPositions[%d] = %d duplicated", i, p)
		}
		seen[p] = true
	}
}

// refParityIndex maps a power-of-two position to its check-byte bit (1..7).
func refParityIndex(pos uint8) uint { return uint(bits.TrailingZeros8(pos)) + 1 }

func refSyndrome(data uint64) uint8 {
	var s uint8
	for data != 0 {
		i := bits.TrailingZeros64(data)
		s ^= dataPositions[i]
		data &= data - 1
	}
	return s
}

func refEncode(data uint64) uint8 {
	s := refSyndrome(data)
	var check uint8
	for _, p := range [...]uint8{1, 2, 4, 8, 16, 32, 64} {
		if s&p != 0 {
			check |= 1 << refParityIndex(p)
		}
	}
	total := uint(bits.OnesCount64(data)) + uint(bits.OnesCount8(check>>1))
	if total%2 == 1 {
		check |= 1
	}
	return check
}

func refDecode(data uint64, check uint8) (uint64, Result) {
	diff := refEncode(data) ^ check
	var s uint8
	for _, p := range [...]uint8{1, 2, 4, 8, 16, 32, 64} {
		if diff&(1<<refParityIndex(p)) != 0 {
			s ^= p
		}
	}
	overallOdd := parityOverall(data, check)
	switch {
	case s == 0 && !overallOdd:
		return data, OK
	case s == 0 && overallOdd:
		return data, CorrectedCheck
	case s != 0 && overallOdd:
		if s&(s-1) == 0 {
			return data, CorrectedCheck
		}
		if i, ok := dataBitAt(s); ok {
			return data ^ (1 << i), CorrectedData
		}
		return data, Detected
	default:
		return data, Detected
	}
}

// flip returns the stored codeword (data, check) of data with codeword
// bit b inverted: bits 0..63 are data bits, 64..71 check bits.
func flip(data uint64, check uint8, b int) (uint64, uint8) {
	if b < 64 {
		return data ^ 1<<b, check
	}
	return data, check ^ 1<<(b-64)
}

// checkMatchesReference fails unless Encode(data) and Decode of the
// stored word with codeword bits i and j flipped (none when both are
// negative, one when i == j) equal the reference codec's.
func checkMatchesReference(t testing.TB, data uint64, i, j int) {
	t.Helper()
	check := Encode(data)
	if want := refEncode(data); check != want {
		t.Fatalf("Encode(%#x) = %#x, reference %#x", data, check, want)
	}
	d, c := data, check
	if i >= 0 {
		d, c = flip(d, c, i)
	}
	if j >= 0 && j != i {
		d, c = flip(d, c, j)
	}
	got, res := Decode(d, c)
	want, wantRes := refDecode(d, c)
	if got != want || res != wantRes {
		t.Fatalf("Decode(%#x, %#x) (word %#x, flips %d, %d) = %#x, %v; reference %#x, %v",
			d, c, data, i, j, got, res, want, wantRes)
	}
}

func TestMasksMatchDataPositions(t *testing.T) {
	masks := [7]uint64{mask0, mask1, mask2, mask3, mask4, mask5, mask6}
	for k, m := range masks {
		var want uint64
		for i, p := range dataPositions {
			if p&(1<<k) != 0 {
				want |= 1 << i
			}
		}
		if m != want {
			t.Errorf("mask%d = %#016x, want %#016x", k, m, want)
		}
	}
}

// TestCodecMatchesReference checks every word, clean and with every
// single and double codeword flip, against the reference codec.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []uint64{0, ^uint64(0), 1, 1 << 63, 0xDEADBEEFCAFEF00D}
	for len(words) < 64 {
		words = append(words, rng.Uint64())
	}
	for _, data := range words {
		checkMatchesReference(t, data, -1, -1)
		for i := 0; i < 72; i++ {
			for j := i; j < 72; j++ {
				checkMatchesReference(t, data, i, j)
			}
		}
	}
	// Sparse and dense words exercise the syndrome's bit loop at its
	// extremes.
	for n := 0; n < 20000; n++ {
		data := rng.Uint64()
		switch n % 3 {
		case 1:
			data &= rng.Uint64() & rng.Uint64()
		case 2:
			data |= rng.Uint64() | rng.Uint64()
		}
		checkMatchesReference(t, data, -1, -1)
	}
}

func FuzzCodecMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint8(255), uint8(255))
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint8(3), uint8(255))
	f.Add(^uint64(0), uint8(70), uint8(71))
	f.Add(uint64(1)<<63, uint8(63), uint8(64))
	f.Fuzz(func(t *testing.T, data uint64, a, b uint8) {
		// 72..255 leave a flip out, so one input space covers clean,
		// single and double flips.
		pos := func(x uint8) int {
			if x >= 72 {
				return -1
			}
			return int(x)
		}
		checkMatchesReference(t, data, pos(a), pos(b))
	})
}
