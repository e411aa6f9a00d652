package cpu

import (
	"fmt"
	"time"
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

// clamp constrains the load to physically meaningful ranges.
func (l Load) clamp() Load {
	clamp01 := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	l.Util = clamp01(l.Util)
	l.BranchMissRate = clamp01(l.BranchMissRate)
	l.CacheHitRate = clamp01(l.CacheHitRate)
	if l.IPC < 0 {
		l.IPC = 0
	}
	if l.CacheRefRate < 0 {
		l.CacheRefRate = 0
	}
	if l.MemBytesPerSec < 0 {
		l.MemBytesPerSec = 0
	}
	return l
}

// Counters are the cumulative per-core hardware counters (the paper's
// Table 1 inputs, minus disk IO which the storage device provides).
type Counters struct {
	Cycles       uint64
	Instructions uint64
	BusCycles    uint64
	BranchMisses uint64
	CacheRefs    uint64
	CacheHits    uint64
}

// Sub returns the counter deltas c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - prev.Cycles,
		Instructions: c.Instructions - prev.Instructions,
		BusCycles:    c.BusCycles - prev.BusCycles,
		BranchMisses: c.BranchMisses - prev.BranchMisses,
		CacheRefs:    c.CacheRefs - prev.CacheRefs,
		CacheHits:    c.CacheHits - prev.CacheHits,
	}
}

// BusBytesPerCycle converts DRAM traffic to bus cycles: a 64-bit bus
// moves 8 bytes per bus cycle.
const BusBytesPerCycle = 8

// Core is one CPU core. Counters accumulate with fractional residue so
// that arbitrarily small Step intervals still integrate exactly.
type Core struct {
	id     int
	freqHz float64
	load   Load

	counters Counters
	// residuals carry sub-integer counter fractions across steps.
	resCycles, resInstr, resBus, resMiss, resRefs, resHits float64
}

// NewCore returns a core running at the given frequency, idle.
func NewCore(id int, freqHz float64) *Core {
	if freqHz <= 0 {
		//radlint:allow nopanic core frequency comes from trusted simulator config; zero Hz is a build bug
		panic(fmt.Sprintf("cpu: NewCore(%d): frequency must be positive, got %v", id, freqHz))
	}
	return &Core{id: id, freqHz: freqHz}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// FreqHz returns the current DVFS frequency.
func (c *Core) FreqHz() float64 { return c.freqHz }

// SetFreqHz changes the DVFS operating point.
func (c *Core) SetFreqHz(hz float64) {
	if hz <= 0 {
		//radlint:allow nopanic core frequency comes from trusted simulator config; zero Hz is a build bug
		panic(fmt.Sprintf("cpu: SetFreqHz(%v): frequency must be positive", hz))
	}
	c.freqHz = hz
}

// Load returns the activity the core is currently executing.
func (c *Core) Load() Load { return c.load }

// SetLoad installs a new activity description.
func (c *Core) SetLoad(l Load) { c.load = l.clamp() }

// Counters returns the cumulative counter values.
func (c *Core) Counters() Counters { return c.counters }

// Step advances the core by dt, accumulating counters according to the
// current frequency and load.
func (c *Core) Step(dt time.Duration) { c.StepSeconds(dt.Seconds()) }

// StepSeconds is Step for a step already converted to seconds, so a
// board stepping every core by the same dt converts it once.
func (c *Core) StepSeconds(sec float64) {
	if sec <= 0 {
		return
	}
	cycles := c.freqHz * sec
	active := cycles * c.load.Util
	instr := active * c.load.IPC
	bus := c.load.MemBytesPerSec * sec / BusBytesPerCycle
	miss := instr * c.load.BranchMissRate
	refs := instr * c.load.CacheRefRate
	hits := refs * c.load.CacheHitRate

	c.counters.Cycles += take(&c.resCycles, cycles)
	c.counters.Instructions += take(&c.resInstr, instr)
	c.counters.BusCycles += take(&c.resBus, bus)
	c.counters.BranchMisses += take(&c.resMiss, miss)
	c.counters.CacheRefs += take(&c.resRefs, refs)
	c.counters.CacheHits += take(&c.resHits, hits)
}

// take adds x to the residual and extracts the integer part.
func take(res *float64, x float64) uint64 {
	*res += x
	n := uint64(*res)
	*res -= float64(n)
	return n
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
