package trace

import (
	"math/rand"
	"time"

	"radshield/internal/cpu"
)

// Kind labels what a segment represents, so experiments know ground truth
// (e.g. whether the system is quiescent) independently of what detectors
// infer.
type Kind int

const (
	// Idle: no application and no housekeeping activity.
	Idle Kind = iota
	// Housekeeping: short OS maintenance tasks during quiescence (log
	// rotation, interrupts, telemetry heartbeats).
	Housekeeping
	// Workload: the payload application is running.
	Workload
)

// Segment is a span of constant activity.
type Segment struct {
	Duration time.Duration
	Kind     Kind
	// Loads holds the per-core activity; cores beyond len(Loads) idle.
	Loads []cpu.Load
	// FreqHz optionally overrides the per-core DVFS frequency for the
	// segment (0 = leave unchanged / let the governor decide).
	FreqHz float64
	// Disk IO rates in sectors/second.
	DiskReadPerSec  float64
	DiskWritePerSec float64
}

// Trace is a sequence of segments.
type Trace struct {
	Segments []Segment
}

// Total returns the summed duration of all segments.
func (t *Trace) Total() time.Duration {
	var d time.Duration
	for _, s := range t.Segments {
		d += s.Duration
	}
	return d
}

// Append adds segments to the trace and returns it for chaining.
func (t *Trace) Append(segs ...Segment) *Trace {
	t.Segments = append(t.Segments, segs...)
	return t
}

// QuiescentFraction returns the fraction of trace time whose segments are
// not Workload — the paper observes spacecraft are quiescent for the vast
// majority of each day.
func (t *Trace) QuiescentFraction() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var q time.Duration
	for _, s := range t.Segments {
		if s.Kind != Workload {
			q += s.Duration
		}
	}
	return float64(q) / float64(total)
}

// builder appends generated segments straight into one trace, keeping
// its running total so generator loops need not re-sum the segments.
// Per-core loads are cut from a slab the trace owns: each segment's
// Loads is a capacity-clipped window of it, so a whole generated trace
// costs a few dozen allocations rather than one per segment.
type builder struct {
	t     *Trace
	total time.Duration
	slab  []cpu.Load
}

func newBuilder() *builder { return &builder{t: &Trace{}} }

// slabMin is the first slab's size in loads; each later slab doubles.
const slabMin = 64

func (b *builder) add(s Segment) {
	b.t.Segments = append(b.t.Segments, s)
	b.total += s.Duration
}

// spread returns a window of the slab holding l on n cores. A full slab
// is left to the windows already cut from it and a larger one started.
func (b *builder) spread(l cpu.Load, n int) []cpu.Load {
	if len(b.slab)+n > cap(b.slab) {
		b.slab = make([]cpu.Load, 0, max(2*cap(b.slab), slabMin, n))
	}
	start := len(b.slab)
	for i := 0; i < n; i++ {
		b.slab = append(b.slab, l)
	}
	return b.slab[start:len(b.slab):len(b.slab)]
}

// Quiescent generates an idle stretch of the given total duration,
// punctuated by short housekeeping blips: mean one blip per blipEvery,
// each 20–200 ms of light single-core activity with a little disk IO.
// These blips are what defeat black-box current-only detectors — they
// raise current without an SEL — and what ILD's counter features explain
// away.
func Quiescent(rng *rand.Rand, total, blipEvery time.Duration) *Trace {
	b := newBuilder()
	b.quiescent(rng, total, blipEvery)
	return b.t
}

func (b *builder) quiescent(rng *rand.Rand, total, blipEvery time.Duration) {
	remaining := total
	for remaining > 0 {
		gap := time.Duration(rng.ExpFloat64() * float64(blipEvery))
		if gap > remaining {
			gap = remaining
		}
		if gap > 0 {
			b.add(Segment{Duration: gap, Kind: Idle})
			remaining -= gap
		}
		if remaining <= 0 {
			break
		}
		blip := 20*time.Millisecond + time.Duration(rng.Int63n(int64(180*time.Millisecond)))
		if blip > remaining {
			blip = remaining
		}
		b.add(Segment{
			Duration:        blip,
			Kind:            Housekeeping,
			Loads:           b.spread(cpu.HousekeepingLoad, 1),
			DiskReadPerSec:  200 + float64(rng.Float64()*800),
			DiskWritePerSec: 100 + float64(rng.Float64()*400),
		})
		remaining -= blip
	}
}

// Burst generates one payload-workload burst of the given duration on
// `cores` cores, alternating compute- and memory-bound phases so the
// current trace shows the paper's high-variance profile (σ ≈ 1 A).
func Burst(rng *rand.Rand, dur time.Duration, cores int) *Trace {
	b := newBuilder()
	b.burst(rng, dur, cores)
	return b.t
}

func (b *builder) burst(rng *rand.Rand, dur time.Duration, cores int) {
	remaining := dur
	for remaining > 0 {
		phase := 200*time.Millisecond + time.Duration(rng.Int63n(int64(3*time.Second)))
		if phase > remaining {
			phase = remaining
		}
		var load cpu.Load
		if rng.Float64() < 0.6 {
			load = cpu.ComputeLoad
		} else {
			load = cpu.MemoryLoad
		}
		// Vary intensity phase to phase.
		load.Util *= 0.7 + float64(rng.Float64()*0.3)
		n := 1 + rng.Intn(cores)
		b.add(Segment{
			Duration:        phase,
			Kind:            Workload,
			Loads:           b.spread(load, n),
			DiskReadPerSec:  rng.Float64() * 2000,
			DiskWritePerSec: rng.Float64() * 500,
		})
		remaining -= phase
	}
}

// FlightSoftware generates the paper's operational pattern: workload
// bursts triggered by (unpredictable) communication windows, separated by
// long quiescent periods. Roughly 20 % of time is spent in bursts.
func FlightSoftware(rng *rand.Rand, total time.Duration, cores int) *Trace {
	b := newBuilder()
	for b.total < total {
		quiet := 2*time.Minute + time.Duration(rng.Int63n(int64(8*time.Minute)))
		b.quiescent(rng, quiet, 15*time.Second)
		if b.total >= total {
			break
		}
		burst := 30*time.Second + time.Duration(rng.Int63n(int64(2*time.Minute)))
		b.burst(rng, burst, cores)
	}
	return clip(b.t, total)
}

// Navigation generates the paper's Figure 2 workload: a spacecraft
// navigation task with sustained multi-core activity whose natural
// variance dwarfs a micro-SEL's +0.07 A.
func Navigation(rng *rand.Rand, total time.Duration, cores int) *Trace {
	b := newBuilder()
	for b.total < total {
		b.burst(rng, 10*time.Second, cores)
		// Short think-time between navigation solutions.
		b.quiescent(rng, time.Duration(rng.Int63n(int64(2*time.Second))), time.Second)
	}
	return clip(b.t, total)
}

// MatMulSteps generates the paper's Figure 5 sweep: cycling between 0 and
// `cores` active cores while stepping the DVFS frequency from minHz to
// maxHz in stepHz increments, each combination held for `hold`.
func MatMulSteps(cores int, minHz, maxHz, stepHz float64, hold time.Duration) *Trace {
	b := newBuilder()
	for f := minHz; f <= maxHz+1; f += stepHz {
		for n := 0; n <= cores; n++ {
			seg := Segment{
				Duration: hold,
				FreqHz:   f,
				Loads:    b.spread(cpu.ComputeLoad, n),
			}
			if n == 0 {
				seg.Kind = Idle
			} else {
				seg.Kind = Workload
			}
			b.add(seg)
		}
	}
	return b.t
}

// clip truncates the trace in place to exactly total duration: the
// segment that crosses total is shortened to end there, the segments
// after it are dropped, and so is any segment left with no length.
func clip(t *Trace, total time.Duration) *Trace {
	var acc time.Duration
	n := 0
	for _, s := range t.Segments {
		if acc+s.Duration > total {
			s.Duration = total - acc
		}
		if s.Duration > 0 {
			t.Segments[n] = s
			n++
		}
		acc += s.Duration
		if acc >= total {
			break
		}
	}
	t.Segments = t.Segments[:n]
	return t
}
