package cpu

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refCore is the direct form of Core's stepping, which Core must match
// bit for bit: it recomputes the five increments on every step, and
// refTake converts through uint64. Its products are converted
// explicitly, as Core's are, so the reference rounds the same on every
// architecture.
type refCore struct {
	freqHz   float64
	load     Load
	counters Counters
	res      [5]float64 // instr, bus, miss, refs, hits
}

func (c *refCore) stepSeconds(sec float64) {
	if sec <= 0 {
		return
	}
	cycles := float64(c.freqHz * sec)
	active := float64(cycles * c.load.Util)
	instr := float64(active * c.load.IPC)
	bus := float64(c.load.MemBytesPerSec * sec / BusBytesPerCycle)
	miss := float64(instr * c.load.BranchMissRate)
	refs := float64(instr * c.load.CacheRefRate)
	hits := float64(refs * c.load.CacheHitRate)

	c.counters.Instructions += refTake(&c.res[0], instr)
	c.counters.BusCycles += refTake(&c.res[1], bus)
	c.counters.BranchMisses += refTake(&c.res[2], miss)
	c.counters.CacheRefs += refTake(&c.res[3], refs)
	c.counters.CacheHits += refTake(&c.res[4], hits)
}

func refTake(res *float64, x float64) uint64 {
	*res += x
	n := uint64(*res)
	*res -= float64(n)
	return n
}

// checkStepsMatchReference interleaves ops random SetLoad, SetFreqHz and
// Step calls, with steps of repeated and varying length, on a Core and
// on refCore, and fails on the first counter or residual whose bits
// differ.
func checkStepsMatchReference(t testing.TB, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCore(0, 600e6)
	ref := &refCore{freqHz: 600e6}
	rate := func(scale float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -rng.Float64() * scale // clamped to 0
		case 2:
			return math.NaN() // clamped to 0
		case 3:
			return math.Copysign(0, -1) // kept: -0 is not below 0
		default:
			return rng.Float64() * scale
		}
	}
	steps := []time.Duration{time.Millisecond, time.Millisecond, 250 * time.Microsecond, time.Second, 0, -time.Millisecond}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op == 0:
			l := Load{Util: rate(1.2), IPC: rate(4), BranchMissRate: rate(0.05),
				CacheRefRate: rate(1), CacheHitRate: rate(1.1), MemBytesPerSec: rate(3e9)}
			c.SetLoad(l)
			ref.load = l.clamp()
		case op == 1:
			hz := 600e6 + rng.Float64()*800e6
			c.SetFreqHz(hz)
			ref.freqHz = hz
		case op < 7:
			d := steps[rng.Intn(len(steps))]
			c.StepSeconds(d.Seconds())
			ref.stepSeconds(d.Seconds())
		default:
			d := time.Duration(rng.Int63n(int64(2 * time.Second)))
			c.StepSeconds(d.Seconds())
			ref.stepSeconds(d.Seconds())
		}
		res := [5]float64{c.resInstr, c.resBus, c.resMiss, c.resRefs, c.resHits}
		if c.counters != ref.counters {
			t.Fatalf("seed %d op %d: counters %+v, reference %+v", seed, i, c.counters, ref.counters)
		}
		for k := range res {
			if math.Float64bits(res[k]) != math.Float64bits(ref.res[k]) {
				t.Fatalf("seed %d op %d: residual %d = %v, reference %v", seed, i, k, res[k], ref.res[k])
			}
		}
	}
}

// TestStepMatchesReference pins the cached increments, the int64
// conversion in take and the idle core's skipped step: counters and
// residuals stay bit-identical to recomputing and adding every
// increment on every step through the uint64 conversion. About one load
// in six is idle (no instructions and no memory traffic, some through a
// -0 field), many after busy steps have left residuals behind.
func TestStepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		checkStepsMatchReference(t, seed, 5000)
	}
}

func FuzzStepMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkStepsMatchReference(t, seed, 2000) })
}

// TestNonFiniteLoadClampsToZero pins that NaN, +Inf and -Inf in any load
// field clamp to 0, so the core counts exactly what it counts with that
// field at 0 instead of whatever the host's float-to-integer conversion
// makes of a non-finite increment.
func TestNonFiniteLoadClampsToZero(t *testing.T) {
	fields := []struct {
		name string
		ptr  func(*Load) *float64
	}{
		{"Util", func(l *Load) *float64 { return &l.Util }},
		{"IPC", func(l *Load) *float64 { return &l.IPC }},
		{"BranchMissRate", func(l *Load) *float64 { return &l.BranchMissRate }},
		{"CacheRefRate", func(l *Load) *float64 { return &l.CacheRefRate }},
		{"CacheHitRate", func(l *Load) *float64 { return &l.CacheHitRate }},
		{"MemBytesPerSec", func(l *Load) *float64 { return &l.MemBytesPerSec }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad, zero := ComputeLoad, ComputeLoad
			*f.ptr(&bad) = v
			*f.ptr(&zero) = 0
			got, want := NewCore(0, 1.4e9), NewCore(1, 1.4e9)
			got.SetLoad(bad)
			want.SetLoad(zero)
			if l := got.Load(); *f.ptr(&l) != 0 {
				t.Errorf("%s = %v clamps to %v, want 0", f.name, v, *f.ptr(&l))
			}
			for i := 0; i < 3; i++ {
				got.StepSeconds(1e-3)
				want.StepSeconds(1e-3)
			}
			if got.Counters() != want.Counters() {
				t.Errorf("%s = %v: counters %+v, want %+v", f.name, v, got.Counters(), want.Counters())
			}
		}
	}
}

func TestNonFiniteFreqPanics(t *testing.T) {
	for _, hz := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"NewCore", func() { NewCore(0, hz) }},
			{"SetFreqHz", func() { NewCore(0, 1e9).SetFreqHz(hz) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", c.name, hz)
					}
				}()
				c.f()
			}()
		}
	}
}

// TestReadSince pins the sampler's counter read: it returns each
// counter's growth since the last read and moves the read cursor to the
// current values.
func TestReadSince(t *testing.T) {
	c := NewCore(0, 1e9)
	c.SetLoad(ComputeLoad)
	var last Counters
	for i := 0; i < 3; i++ {
		before := last
		c.StepSeconds(1e-3)
		instr, bus, misses, refs, hits := c.ReadSince(&last)
		got := Counters{Instructions: instr, BusCycles: bus, BranchMisses: misses, CacheRefs: refs, CacheHits: hits}
		cur := c.Counters()
		want := Counters{Instructions: cur.Instructions - before.Instructions,
			BusCycles: cur.BusCycles - before.BusCycles, BranchMisses: cur.BranchMisses - before.BranchMisses,
			CacheRefs: cur.CacheRefs - before.CacheRefs, CacheHits: cur.CacheHits - before.CacheHits}
		if got != want || want.Instructions == 0 {
			t.Fatalf("read %d: ReadSince = %+v, want %+v", i, got, want)
		}
		if last != c.Counters() {
			t.Fatalf("read %d: cursor %+v, want %+v", i, last, c.Counters())
		}
	}
}
