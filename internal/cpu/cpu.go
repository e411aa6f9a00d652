package cpu

import (
	"fmt"
	"math"
)

// Load describes the activity a core is executing, in rates a real
// workload would exhibit. The zero value is a fully idle core.
type Load struct {
	Util           float64 // fraction of cycles doing work, 0..1
	IPC            float64 // instructions completed per active cycle
	BranchMissRate float64 // branch misses per instruction
	CacheRefRate   float64 // cache references per instruction
	CacheHitRate   float64 // fraction of cache references that hit
	MemBytesPerSec float64 // DRAM traffic generated (drives bus cycles and DRAM power)
}

// clamp constrains the load to physically meaningful ranges: Util,
// BranchMissRate and CacheHitRate to [0, 1], the other rates to
// [0, MaxFloat64]. A non-finite field (NaN, +Inf or -Inf) describes no
// activity and clamps to 0. So every per-step counter increment is
// finite and non-negative, and a core's counters never depend on how the
// host converts a non-finite float to an integer, which the Go spec
// leaves to the implementation.
func (l Load) clamp() Load {
	l.Util = clampRange(l.Util, 1)
	l.IPC = clampRange(l.IPC, math.MaxFloat64)
	l.BranchMissRate = clampRange(l.BranchMissRate, 1)
	l.CacheRefRate = clampRange(l.CacheRefRate, math.MaxFloat64)
	l.CacheHitRate = clampRange(l.CacheHitRate, 1)
	l.MemBytesPerSec = clampRange(l.MemBytesPerSec, math.MaxFloat64)
	return l
}

// clampRange limits x to [0, hi]; a non-finite x becomes 0.
func clampRange(x, hi float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0) || x < 0:
		return 0
	case x > hi:
		return hi
	}
	return x
}

// Counters are the cumulative per-core hardware counters (the paper's
// Table 1 inputs, minus disk IO which the storage device provides). No
// feature reads a core-cycle count, so the core keeps none.
type Counters struct {
	Instructions uint64
	BusCycles    uint64
	BranchMisses uint64
	CacheRefs    uint64
	CacheHits    uint64
}

// BusBytesPerCycle converts DRAM traffic to bus cycles: a 64-bit bus
// moves 8 bytes per bus cycle.
const BusBytesPerCycle = 8

// Core is one CPU core. Counters accumulate with fractional residue so
// that arbitrarily small Step intervals still integrate exactly.
type Core struct {
	freqHz float64
	load   Load

	counters Counters
	// residuals carry sub-integer counter fractions across steps.
	resInstr, resBus, resMiss, resRefs, resHits float64

	// incSec is the step length, in seconds, of the increments below;
	// 0 marks them stale. They depend only on the step length, the load
	// and the frequency, so a board stepping at a fixed cadence computes
	// them once per trace segment, not once per step.
	incSec float64

	incInstr, incBus, incMiss, incRefs, incHits float64
	// idle marks increments that are all zero: adding zero leaves every
	// counter and residual as it is, so a step of an idle core is a
	// no-op.
	idle bool
}

// NewCore returns a core running at the given frequency, idle. The
// frequency must be positive and finite.
func NewCore(id int, freqHz float64) *Core {
	if !validFreq(freqHz) {
		//radlint:allow nopanic core frequency comes from trusted simulator config; zero Hz is a build bug
		panic(fmt.Sprintf("cpu: NewCore(%d): frequency must be positive and finite, got %v", id, freqHz))
	}
	return &Core{freqHz: freqHz}
}

// FreqHz returns the current DVFS frequency.
func (c *Core) FreqHz() float64 { return c.freqHz }

// SetFreqHz changes the DVFS operating point. The frequency must be
// positive and finite.
func (c *Core) SetFreqHz(hz float64) {
	if !validFreq(hz) {
		//radlint:allow nopanic core frequency comes from trusted simulator config; zero Hz is a build bug
		panic(fmt.Sprintf("cpu: SetFreqHz(%v): frequency must be positive and finite", hz))
	}
	c.freqHz = hz
	c.incSec = 0
}

// validFreq reports whether hz is a usable core frequency: positive and
// finite (NaN fails the comparison).
func validFreq(hz float64) bool { return hz > 0 && hz <= math.MaxFloat64 }

// Load returns the activity the core is currently executing.
func (c *Core) Load() Load { return c.load }

// SetLoad installs a new activity description, clamped to physical
// ranges (non-finite fields become 0; see Load).
func (c *Core) SetLoad(l Load) {
	c.load = l.clamp()
	c.incSec = 0
}

// Counters returns the cumulative counter values.
func (c *Core) Counters() Counters { return c.counters }

// ReadSince returns how much each counter has grown since last, the
// values of an earlier read, and stores the current values in *last. It
// works field by field: a sampler calls it for every core on every
// sample, and copying the counter struct through the stack there cost
// more than the subtractions.
func (c *Core) ReadSince(last *Counters) (instr, bus, misses, refs, hits uint64) {
	cur := &c.counters
	instr, last.Instructions = cur.Instructions-last.Instructions, cur.Instructions
	bus, last.BusCycles = cur.BusCycles-last.BusCycles, cur.BusCycles
	misses, last.BranchMisses = cur.BranchMisses-last.BranchMisses, cur.BranchMisses
	refs, last.CacheRefs = cur.CacheRefs-last.CacheRefs, cur.CacheRefs
	hits, last.CacheHits = cur.CacheHits-last.CacheHits, cur.CacheHits
	return
}

// StepSeconds advances the core by sec seconds, accumulating counters
// according to the current frequency and load.
//
// The per-step increments are recomputed only when the step length
// differs from the last one or SetLoad or SetFreqHz ran since. They are
// the same operations in the same order either way, so the counters are
// bit-identical to computing them on every step. A core whose
// increments are all zero (±0: no instructions and no memory traffic,
// as IdleLoad) skips the step: take adds zero to a residual in [0, 1),
// which changes no bit, and extracts 0.
func (c *Core) StepSeconds(sec float64) {
	if sec <= 0 {
		return
	}
	if sec != c.incSec {
		c.setIncrements(sec)
	}
	if c.idle {
		return
	}
	c.counters.Instructions += take(&c.resInstr, c.incInstr)
	c.counters.BusCycles += take(&c.resBus, c.incBus)
	c.counters.BranchMisses += take(&c.resMiss, c.incMiss)
	c.counters.CacheRefs += take(&c.resRefs, c.incRefs)
	c.counters.CacheHits += take(&c.resHits, c.incHits)
}

// setIncrements computes the counter increments of one sec-long step at
// the current frequency and load. Each product is converted explicitly
// (float64(...)), so no compiler fuses it into take's addition.
func (c *Core) setIncrements(sec float64) {
	cycles := float64(c.freqHz * sec)
	active := float64(cycles * c.load.Util)
	instr := float64(active * c.load.IPC)
	refs := float64(instr * c.load.CacheRefRate)
	c.incSec = sec
	c.incInstr = instr
	c.incBus = float64(c.load.MemBytesPerSec * sec / BusBytesPerCycle)
	c.incMiss = float64(instr * c.load.BranchMissRate)
	c.incRefs = refs
	c.incHits = float64(refs * c.load.CacheHitRate)
	c.idle = instr == 0 && c.incBus == 0
}

// take adds x to the residual and extracts the integer part. It converts
// through int64, which compiles to one truncating instruction where the
// uint64 conversion needs a range check and two branches; the two agree
// on [0, 2^63). The residual is in [0, 1) and x is finite and
// non-negative (see Load and SetFreqHz), so the sum is in range unless
// one step counts 2^63 ≈ 9.2e18 events: a 1.4 GHz core takes about 200
// years to count that many cycles.
func take(res *float64, x float64) uint64 {
	r := *res + x
	n := int64(r)
	*res = r - float64(n)
	return uint64(n)
}

// Package-level load presets used by traces and tests. Values are typical
// of the workload classes the paper runs (navigation, image matching,
// housekeeping).
var (
	// IdleLoad is a truly quiescent core.
	IdleLoad = Load{}
	// HousekeepingLoad models short OS maintenance tasks (log rotation,
	// interrupts) that run during quiescence.
	HousekeepingLoad = Load{Util: 0.08, IPC: 0.9, BranchMissRate: 0.02, CacheRefRate: 0.3, CacheHitRate: 0.92, MemBytesPerSec: 30e6}
	// ComputeLoad is a CPU-bound kernel (matrix multiply, encryption).
	ComputeLoad = Load{Util: 1.0, IPC: 2.2, BranchMissRate: 0.004, CacheRefRate: 0.35, CacheHitRate: 0.97, MemBytesPerSec: 400e6}
	// MemoryLoad is a DRAM-bound kernel (image sweep, compression).
	MemoryLoad = Load{Util: 0.9, IPC: 0.8, BranchMissRate: 0.01, CacheRefRate: 0.6, CacheHitRate: 0.55, MemBytesPerSec: 2.4e9}
)
