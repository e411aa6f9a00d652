package alfg

import (
	"math"
	"math/rand"
	"testing"
)

// readingCases are the reading models matchStream mixes: the sensor's
// defaults, a spike on most readings, noise wide enough that readings
// clamp at zero, and no noise at all around a positive, a negative-zero
// and a NaN current (the minimum's signed-zero and NaN rules).
var readingCases = []struct {
	name string
	cur  float64
	n    Noise
}{
	{"default", 1.55, Noise{Sigma: 0.02, SpikeProb: 0.025, SpikeLo: 0.05, SpikeSpan: 0.95}},
	{"spiky", 1.55, Noise{Sigma: 0.02, SpikeProb: 0.7, SpikeLo: 0.05, SpikeSpan: 0.95}},
	{"always-spike", 0.3, Noise{Sigma: 0.2, SpikeProb: 1, SpikeLo: 0.05, SpikeSpan: 3}},
	{"clamp", 0.1, Noise{Sigma: 5, SpikeProb: 0.025, SpikeLo: 0.05, SpikeSpan: 0.95}},
	{"negative", -2, Noise{Sigma: 1, SpikeProb: 0.3, SpikeLo: 0.05, SpikeSpan: 0.95}},
	{"quiet", 1.55, Noise{}},
	{"negative-zero", math.Copysign(0, -1), Noise{}},
	{"nan", math.NaN(), Noise{Sigma: 0.02, SpikeProb: 0.025, SpikeLo: 0.05, SpikeSpan: 0.95}},
}

// refMinReading is MinReading's specification: k readings drawn one
// value at a time from a math/rand generator.
func refMinReading(r *rand.Rand, cur float64, n Noise, k int) float64 {
	min := math.Inf(1)
	for i := 0; i < k; i++ {
		v := cur + float64(r.NormFloat64()*n.Sigma)
		if r.Float64() < n.SpikeProb {
			v += n.SpikeLo + float64(r.Float64()*n.SpikeSpan)
		}
		if v < 0 {
			v = 0
		}
		if v < min {
			min = v
		}
	}
	return min
}

// matchStream takes n readings from New(seed) through MinReading and
// from rand.New(rand.NewSource(seed)) through refMinReading, and fails
// on the first call whose bits differ. Each call's reading model and
// window k (0 to 8) come from a xorshift selector, so the mix does not
// repeat with the generator's period or the ziggurat's rejection loops.
func matchStream(t testing.TB, seed int64, n int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	sel := uint64(seed) | 1
	for call := 0; n > 0; call++ {
		sel ^= sel << 13
		sel ^= sel >> 7
		sel ^= sel << 17
		c := readingCases[sel%uint64(len(readingCases))]
		k := int(sel>>32) % 9
		g, w := got.MinReading(c.cur, c.n, k), refMinReading(want, c.cur, c.n, k)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: call %d (%s, k=%d) = %v (%#x), math/rand gives %v (%#x)",
				seed, call, c.name, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		n -= k
	}
	// The streams must also stand at the same place.
	if g, w := got.uniform(), want.Float64(); g != w {
		t.Fatalf("seed %d: next Float64 after the readings = %v, math/rand gives %v", seed, g, w)
	}
}

// TestSourceMatchesMathRand is the proof behind the sensor's noise
// stream (DESIGN.md §9): for seeds on every branch of math/rand's
// seeding — zero and its substitute 89482311, negatives, multiples of
// 2^31-1 (which reduce to zero), the int64 extremes — and random ones,
// MinReading reproduces the per-draw loop over
// rand.New(rand.NewSource(seed)) bit for bit over a million readings
// each, ziggurat tails included (about one normal draw in a hundred
// leaves the inline strip test).
//
// The reference is math/rand as compiled for the host. The arm64
// compiler fuses two multiply-adds in math/rand's ziggurat, which the
// copy converts away, so there the reference itself rounds differently
// from amd64; a draw whose rejection test or tail value lands within
// that rounding would show up here as a mismatch.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = math.MaxInt32 // 2^31-1, the modulus of math/rand's seeding
	seeds := []int64{0, 1, -1, m, -m, 2 * m, 7 * m, m + 1, 89482311,
		math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(20260917))
	for i := 0; i < 3; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	for _, seed := range seeds {
		matchStream(t, seed, n)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, math.MaxInt32, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchStream(t, seed, 1<<12) })
}

// TestMinReadingResamplesUnitOne covers the uniform draw no seeded
// stream reaches: an output whose low 63 bits round up to 2^63 makes
// Float64 1, and math/rand draws again. A register is planted so that
// the spike test's draw, and then the spike's own, come out that way;
// MinReading must take the same extra steps as the per-draw Float64.
func TestMinReadingResamplesUnitOne(t *testing.T) {
	n := Noise{Sigma: 0.02, SpikeProb: 1, SpikeLo: 0.05, SpikeSpan: 0.95}
	s := New(3)
	// From the seeded cursor (tap 0, feed 334), output 1 adds vec[333]
	// and vec[606] (the normal draw), output 2 vec[332] and vec[605] (the
	// spike test), output 3 vec[331] and vec[604] (its redraw), output 4
	// vec[330] and vec[603] (the spike), output 5 vec[329] and vec[602]
	// (its redraw).
	s.vec[332], s.vec[605] = rngMask, 0
	s.vec[330], s.vec[603] = rngMask-100, 100
	unit := func(x int64) float64 { return float64(x&rngMask) / (1 << 63) }
	if unit(s.vec[332]+s.vec[605]) != 1 || unit(s.vec[330]+s.vec[603]) != 1 {
		t.Fatal("planted outputs do not round to 1")
	}
	ref := *s
	got := s.MinReading(1.55, n, 2)

	// The reference: the per-draw form over a copy of the register.
	want := math.Inf(1)
	for i := 0; i < 2; i++ {
		v := 1.55 + float64(ref.normFloat64()*n.Sigma)
		if ref.uniform() < n.SpikeProb {
			v += n.SpikeLo + float64(ref.uniform()*n.SpikeSpan)
		}
		if v < 0 {
			v = 0
		}
		if v < want {
			want = v
		}
	}
	if math.Float64bits(got) != math.Float64bits(want) || s.tap != ref.tap || s.feed != ref.feed {
		t.Fatalf("MinReading = %v at cursor (%d, %d), per-draw loop %v at (%d, %d)",
			got, s.tap, s.feed, want, ref.tap, ref.feed)
	}
	if s.tap != rngLen-8 {
		t.Fatalf("cursor tap = %d, want %d: two readings of three draws, plus two redraws", s.tap, rngLen-8)
	}
}

// normFloat64 is math/rand's NormFloat64 over the Source's cursor: one
// strip test, and normTail on rejection.
func (s *Source) normFloat64() float64 {
	var x int64
	x, s.tap, s.feed = next(&s.vec, s.tap, s.feed)
	return s.normTail(int32(x >> 31))
}
