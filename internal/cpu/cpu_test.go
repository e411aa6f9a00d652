package cpu

import (
	"testing"
	"testing/quick"
)

// TestIdleCoreAccumulatesOnlyCycles: an idle core spends its cycles and
// nothing else, and the core counts no cycles, so every counter stays 0.
func TestIdleCoreAccumulatesOnlyCycles(t *testing.T) {
	c := NewCore(0, 1e9)
	c.StepSeconds(1)
	if got := c.Counters(); got != (Counters{}) {
		t.Errorf("idle core accumulated activity: %+v", got)
	}
}

func TestBusyCoreCounters(t *testing.T) {
	c := NewCore(1, 1e9)
	c.SetLoad(Load{Util: 0.5, IPC: 2, BranchMissRate: 0.01, CacheRefRate: 0.4, CacheHitRate: 0.9, MemBytesPerSec: 8e8})
	c.StepSeconds(1)
	got := c.Counters()
	if got.Instructions != 1e9 { // 1e9 cycles × 0.5 util × 2 IPC
		t.Errorf("Instructions = %d, want 1e9", got.Instructions)
	}
	if got.BusCycles != 1e8 { // 8e8 bytes / 8 bytes-per-cycle
		t.Errorf("BusCycles = %d, want 1e8", got.BusCycles)
	}
	if got.BranchMisses != 1e7 {
		t.Errorf("BranchMisses = %d, want 1e7", got.BranchMisses)
	}
	if got.CacheRefs != 4e8 {
		t.Errorf("CacheRefs = %d, want 4e8", got.CacheRefs)
	}
	if got.CacheHits != 3.6e8 {
		t.Errorf("CacheHits = %d, want 3.6e8", got.CacheHits)
	}
}

func TestStepResidualsIntegrateExactly(t *testing.T) {
	// 1000 steps of 1ms must equal one step of 1s (modulo ±1 count).
	a := NewCore(0, 7.77e8)
	b := NewCore(1, 7.77e8)
	load := Load{Util: 0.33, IPC: 1.7, BranchMissRate: 0.013, CacheRefRate: 0.41, CacheHitRate: 0.83, MemBytesPerSec: 123456789}
	a.SetLoad(load)
	b.SetLoad(load)
	for i := 0; i < 1000; i++ {
		a.StepSeconds(1e-3)
	}
	b.StepSeconds(1)
	ca, cb := a.Counters(), b.Counters()
	near := func(x, y uint64) bool {
		d := int64(x) - int64(y)
		return d >= -1 && d <= 1
	}
	if !near(ca.Instructions, cb.Instructions) ||
		!near(ca.BusCycles, cb.BusCycles) || !near(ca.BranchMisses, cb.BranchMisses) ||
		!near(ca.CacheRefs, cb.CacheRefs) || !near(ca.CacheHits, cb.CacheHits) {
		t.Fatalf("fine steps %+v != coarse step %+v", ca, cb)
	}
}

func TestLoadClamp(t *testing.T) {
	c := NewCore(0, 1e9)
	c.SetLoad(Load{Util: 1.5, IPC: -1, BranchMissRate: 2, CacheRefRate: -3, CacheHitRate: -0.5, MemBytesPerSec: -10})
	l := c.Load()
	if l.Util != 1 || l.IPC != 0 || l.BranchMissRate != 1 || l.CacheRefRate != 0 || l.CacheHitRate != 0 || l.MemBytesPerSec != 0 {
		t.Fatalf("clamp failed: %+v", l)
	}
}

func TestFreqChange(t *testing.T) {
	c := NewCore(0, 1e9)
	c.SetLoad(Load{Util: 0.5, IPC: 2})
	c.SetFreqHz(2e9)
	if c.FreqHz() != 2e9 {
		t.Fatalf("FreqHz = %v", c.FreqHz())
	}
	c.StepSeconds(1)
	if got := c.Counters().Instructions; got != 2e9 { // 2e9 cycles × 0.5 util × 2 IPC
		t.Fatalf("Instructions = %d, want 2e9", got)
	}
}

func TestInvalidFreqPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCore(0, 0) },
		func() { NewCore(0, -1) },
		func() { NewCore(0, 1).SetFreqHz(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid frequency did not panic")
				}
			}()
			f()
		}()
	}
}

func TestZeroAndNegativeStepIgnored(t *testing.T) {
	c := NewCore(0, 1e9)
	c.SetLoad(ComputeLoad)
	c.StepSeconds(0)
	c.StepSeconds(-1)
	if got := c.Counters(); got != (Counters{}) {
		t.Fatalf("zero/negative step accumulated: %+v", got)
	}
}

// Property: counters are monotonically non-decreasing and hits never
// exceed refs.
func TestPropertyCounterInvariants(t *testing.T) {
	f := func(util, ipc, miss, refs, hit float64, steps uint8) bool {
		c := NewCore(0, 1.4e9)
		c.SetLoad(Load{
			Util: abs1(util), IPC: abs(ipc, 4), BranchMissRate: abs1(miss),
			CacheRefRate: abs(refs, 2), CacheHitRate: abs1(hit), MemBytesPerSec: 1e8,
		})
		prev := c.Counters()
		for i := 0; i < int(steps%50)+1; i++ {
			c.StepSeconds(1e-3)
			cur := c.Counters()
			if cur.Instructions < prev.Instructions || cur.BusCycles < prev.BusCycles ||
				cur.CacheHits < prev.CacheHits || cur.CacheRefs < prev.CacheRefs {
				return false
			}
			if cur.CacheHits > cur.CacheRefs {
				return false
			}
			if cur.BranchMisses > cur.Instructions {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func abs1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 10
	}
	return x
}

func abs(x, max float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > max {
		x /= 10
	}
	return x
}

func TestPresetLoadsAreValid(t *testing.T) {
	for _, l := range []Load{IdleLoad, HousekeepingLoad, ComputeLoad, MemoryLoad} {
		if l.clamp() != l {
			t.Errorf("preset load out of range: %+v", l)
		}
	}
}
