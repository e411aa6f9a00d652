//go:build !race

// Allocation-regression tests for the campaign hot path. The parallel
// campaign scheduler's original slowdown was GC pressure: every trial is
// an independent machine, so the only resource the workers shared was
// the allocator. These tests pin the steady-state allocation rate of the
// per-sample loop so it cannot creep back (see PERFORMANCE.md).
//
// Excluded under -race: race instrumentation allocates on its own, which
// would make AllocsPerRun numbers meaningless.

package machine

import (
	"math/rand"
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/trace"
)

// TestAllocsSteadyStepOnly pins the electrical-state caching: Step must
// not rebuild the BoardState core slice (once 58% of all campaign
// objects). Only ApplySegment and PowerCycle refresh it.
func TestAllocsSteadyStepOnly(t *testing.T) {
	m := New(DefaultConfig())
	m.ApplySegment(trace.Segment{Duration: time.Hour, Loads: []cpu.Load{{Util: 0.5, IPC: 1.0}}})
	dt := m.cfg.SampleEvery
	m.Step(dt)

	avg := testing.AllocsPerRun(1000, func() { m.Step(dt) })
	if avg != 0 {
		t.Errorf("Step allocates %.3f objects/step, want 0", avg)
	}
}

// TestAllocsRunTrace pins the flight loop as the campaigns drive it:
// RunTrace samples into one machine-owned PerCore buffer, so playing a
// prebuilt multi-segment trace to a callback that keeps nothing
// allocates nothing at all — no per-sample chunk, no per-segment state.
func TestAllocsRunTrace(t *testing.T) {
	m := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	tr := trace.Burst(rng, 2*time.Second, 4)
	tr.Append(trace.Quiescent(rng, 2*time.Second, 200*time.Millisecond).Segments...)
	if len(tr.Segments) < 4 {
		t.Fatalf("trace has %d segments, want several", len(tr.Segments))
	}
	var sum float64
	onSample := func(tel Telemetry) { sum += tel.TotalInstrPerSec() }
	m.RunTrace(tr, onSample) // warm up

	avg := testing.AllocsPerRun(10, func() { m.RunTrace(tr, onSample) })
	if avg != 0 {
		t.Errorf("RunTrace allocates %.1f objects per %v trace, want 0", avg, tr.Total())
	}
	if sum == 0 {
		t.Fatal("callback saw no activity")
	}
}
