package machine

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/power"
	"radshield/internal/stats"
	"radshield/internal/trace"
)

func quietConfig() Config {
	cfg := DefaultConfig()
	// Deterministic current for structural tests.
	cfg.Power.NoiseSigmaA = 0
	cfg.Power.SpikeProb = 0
	return cfg
}

// sampleNow takes one sample over the interval since the previous one,
// through the body RunTrace samples with, into a PerCore slice the
// caller owns, so a test can step the board by hand.
func (m *Machine) sampleNow() Telemetry { return m.sample(make([]CoreTelemetry, len(m.cores))) }

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 cores did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Cores = 0
	New(cfg)
}

func TestSampleReflectsLoad(t *testing.T) {
	m := New(quietConfig())
	m.ApplySegment(trace.Segment{
		Duration: time.Second,
		Loads:    []cpu.Load{cpu.ComputeLoad, cpu.ComputeLoad},
		Kind:     trace.Workload,
	})
	m.Step(100 * time.Millisecond)
	tel := m.sampleNow()
	if tel.PerCore[0].InstrPerSec < 1e9 {
		t.Errorf("core0 instr rate = %g, want >1e9 under ComputeLoad at max freq", tel.PerCore[0].InstrPerSec)
	}
	if tel.PerCore[2].InstrPerSec != 0 {
		t.Errorf("core2 should be idle, got %g instr/s", tel.PerCore[2].InstrPerSec)
	}
	if tel.TotalInstrPerSec() <= tel.PerCore[0].InstrPerSec {
		t.Error("TotalInstrPerSec must sum across cores")
	}
	if tel.PerCore[0].CacheHitRate < 0.9 {
		t.Errorf("cache hit rate = %v, want ≈0.97", tel.PerCore[0].CacheHitRate)
	}
}

func TestGovernorTracksUtil(t *testing.T) {
	m := New(quietConfig())
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}})
	m.Step(time.Millisecond)
	tel := m.sampleNow()
	if tel.PerCore[0].FreqHz != MaxFreqHz {
		t.Errorf("busy core freq = %g, want max %g", tel.PerCore[0].FreqHz, MaxFreqHz)
	}
	if tel.PerCore[1].FreqHz != MinFreqHz {
		t.Errorf("idle core freq = %g, want min %g", tel.PerCore[1].FreqHz, MinFreqHz)
	}
}

func TestSegmentFreqOverrideWins(t *testing.T) {
	m := New(quietConfig())
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}, FreqHz: 800e6})
	m.Step(time.Millisecond)
	tel := m.sampleNow()
	if tel.PerCore[0].FreqHz != 800e6 {
		t.Errorf("pinned freq = %g, want 800e6", tel.PerCore[0].FreqHz)
	}
}

func TestFreqOverrideClamped(t *testing.T) {
	m := New(quietConfig())
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}, FreqHz: 9e9})
	if got := m.state.Cores[0].FreqHz; got != MaxFreqHz {
		t.Errorf("freq = %g, want clamped to %g", got, MaxFreqHz)
	}
}

func TestSELLifecycle(t *testing.T) {
	m := New(quietConfig())
	base := m.trueCurrentA()
	m.InjectSEL(0.07)
	if !m.SELActive() || m.selAmps != 0.07 {
		t.Fatal("SEL not active after injection")
	}
	if got := m.trueCurrentA(); got != base+0.07 {
		t.Fatalf("current with SEL = %v, want %v", got, base+0.07)
	}
	m.InjectSEL(0.05) // second strike stacks
	if d := m.selAmps - 0.12; d > 1e-12 || d < -1e-12 {
		t.Fatalf("stacked SEL = %v, want 0.12", m.selAmps)
	}
	m.PowerCycle()
	if m.SELActive() || m.trueCurrentA() != base {
		t.Fatal("power cycle did not clear SEL")
	}
	if m.PowerCycles() != 1 {
		t.Fatalf("PowerCycles = %d", m.PowerCycles())
	}
}

func TestSELDamageAfterHorizon(t *testing.T) {
	m := New(quietConfig())
	m.InjectSEL(0.07)
	m.Step(SELDamageAfter - time.Second)
	if m.Damaged() {
		t.Fatal("damaged before horizon")
	}
	m.Step(2 * time.Second)
	if !m.Damaged() {
		t.Fatal("not damaged after horizon")
	}
	// Damage is permanent even after a late power cycle.
	m.PowerCycle()
	if !m.Damaged() {
		t.Fatal("damage cleared by power cycle")
	}
}

func TestPowerCycleBeforeHorizonPreventsDamage(t *testing.T) {
	m := New(quietConfig())
	m.InjectSEL(0.07)
	m.Step(SELDamageAfter / 2)
	m.PowerCycle()
	m.Step(2 * SELDamageAfter)
	if m.Damaged() {
		t.Fatal("damaged despite timely power cycle")
	}
}

func TestRunTraceSampleCountAndTiming(t *testing.T) {
	m := New(quietConfig())
	tr := &trace.Trace{}
	tr.Append(
		trace.Segment{Duration: 3 * time.Millisecond, Loads: []cpu.Load{cpu.ComputeLoad}},
		trace.Segment{Duration: 2500 * time.Microsecond},
	)
	var times []time.Duration
	n := m.RunTrace(tr, func(tel Telemetry) { times = append(times, tel.T) })
	if n != 5 { // 5.5ms total at 1ms cadence → 5 full samples
		t.Fatalf("samples = %d, want 5", n)
	}
	for i, ts := range times {
		if want := time.Duration(i+1) * time.Millisecond; ts != want {
			t.Fatalf("sample %d at %v, want %v", i, ts, want)
		}
	}
	if got := m.Now(); got != 5500*time.Microsecond {
		t.Fatalf("clock = %v, want 5.5ms", got)
	}
}

func TestNowStartsAtZero(t *testing.T) {
	if got := New(quietConfig()).Now(); got != 0 {
		t.Fatalf("new board: Now() = %v, want 0", got)
	}
}

func TestStepAccumulatesIntoNow(t *testing.T) {
	m := New(quietConfig())
	m.Step(3 * time.Second)
	m.Step(0)
	m.Step(-time.Second)
	m.Step(250 * time.Millisecond)
	if got, want := m.Now(), 3250*time.Millisecond; got != want {
		t.Fatalf("after steps of 3s, 0, -1s and 250ms: Now() = %v, want %v", got, want)
	}
}

func TestRunTraceSamplesSpanSegmentBoundaries(t *testing.T) {
	// A sample interval straddling two segments must still fire exactly
	// on cadence.
	m := New(quietConfig())
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(trace.Segment{Duration: 300 * time.Microsecond})
	}
	var count int
	m.RunTrace(tr, func(Telemetry) { count++ })
	if count != 3 { // 3ms / 1ms
		t.Fatalf("samples = %d, want 3", count)
	}
}

func TestDiskIORatesAppearInTelemetry(t *testing.T) {
	m := New(quietConfig())
	m.ApplySegment(trace.Segment{DiskReadPerSec: 1000, DiskWritePerSec: 500})
	m.Step(time.Millisecond)
	tel := m.sampleNow()
	if tel.DiskReadPerSec < 900 || tel.DiskReadPerSec > 1100 {
		t.Errorf("DiskReadPerSec = %v, want ≈1000", tel.DiskReadPerSec)
	}
	if tel.DiskWritePerSec < 450 || tel.DiskWritePerSec > 550 {
		t.Errorf("DiskWritePerSec = %v, want ≈500", tel.DiskWritePerSec)
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := New(quietConfig())
	m.Step(time.Second) // idle: 1.55 A × 5 V × 1 s = 7.75 J
	got := m.energyJ
	if got < 7.7 || got > 7.8 {
		t.Fatalf("EnergyJoules = %v, want ≈7.75", got)
	}
	before := got
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad, cpu.ComputeLoad, cpu.ComputeLoad, cpu.ComputeLoad}})
	m.Step(time.Second)
	if m.energyJ-before < 15 {
		t.Fatalf("full-load second added %v J, want > 15 J", m.energyJ-before)
	}
}

func TestCurrentCorrelatesWithActivity(t *testing.T) {
	// Mini version of the paper's Figure 5: stepped load must correlate
	// ≥0.99 with measured (filtered) current.
	cfg := DefaultConfig()
	cfg.SensorSeed = 99
	m := New(cfg)
	tr := trace.MatMulSteps(4, 600e6, 1.4e9, 200e6, 50*time.Millisecond)
	var instr, current []float64
	m.RunTrace(tr, func(tel Telemetry) {
		instr = append(instr, tel.TotalInstrPerSec())
		current = append(current, tel.CurrentA)
	})
	if r := stats.Correlation(instr, current); r < 0.95 {
		t.Fatalf("corr(instr rate, current) = %.4f, want ≥0.95", r)
	}
}

func TestQuiescentCurrentStableUnderTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorSeed = 5
	m := New(cfg)
	rng := rand.New(rand.NewSource(8))
	tr := trace.Quiescent(rng, 10*time.Second, 2*time.Second)
	var filtered []float64
	m.RunTrace(tr, func(tel Telemetry) { filtered = append(filtered, tel.CurrentA) })
	if sigma := stats.StdDev(filtered); sigma > 0.06 {
		t.Fatalf("quiescent filtered σ = %.4f A, want small (≈0.02 + housekeeping)", sigma)
	}
}

func TestSampleDegenerateInterval(t *testing.T) {
	m := New(quietConfig())
	tel := m.sampleNow() // zero elapsed time must not divide by zero
	if len(tel.PerCore) != 4 {
		t.Fatalf("PerCore len = %d", len(tel.PerCore))
	}
}

func TestInjectSELRejectsBadAmps(t *testing.T) {
	m := New(quietConfig())
	for _, amps := range []float64{0, -0.07, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.InjectSEL(amps); err == nil {
			t.Errorf("InjectSEL(%v) accepted, want error", amps)
		}
	}
	if m.SELActive() {
		t.Fatal("rejected injection left an SEL active")
	}
	if err := m.InjectSEL(0.07); err != nil {
		t.Fatalf("valid injection rejected: %v", err)
	}
}

func TestSensorFaultFlowsThroughMachineTelemetry(t *testing.T) {
	m := New(quietConfig())
	if err := m.Sensor().ScheduleFault(power.SensorFault{
		Kind: power.FaultDropout, Start: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond)
	tel := m.sampleNow()
	if math.IsNaN(tel.RawA) || math.IsNaN(tel.CurrentA) {
		t.Fatal("NaN before fault onset")
	}
	m.Step(2 * time.Millisecond)
	tel = m.sampleNow()
	if !math.IsNaN(tel.RawA) || !math.IsNaN(tel.CurrentA) {
		t.Fatalf("RawA=%v CurrentA=%v under dropout, want NaN", tel.RawA, tel.CurrentA)
	}
}

// TestNonFiniteSegmentLoadReadsAsZero pins that a trace segment's
// non-finite load field acts as 0 everywhere the machine uses it: the
// core's counters, the ondemand governor's frequency and the DRAM
// traffic behind the current model, so a NaN utilisation never becomes
// a NaN core frequency.
func TestNonFiniteSegmentLoadReadsAsZero(t *testing.T) {
	fields := []func(*cpu.Load) *float64{
		func(l *cpu.Load) *float64 { return &l.Util },
		func(l *cpu.Load) *float64 { return &l.IPC },
		func(l *cpu.Load) *float64 { return &l.MemBytesPerSec },
	}
	run := func(l cpu.Load) []Telemetry {
		m := New(DefaultConfig())
		m.ApplySegment(trace.Segment{Duration: 5 * time.Millisecond, Loads: []cpu.Load{l, l}})
		var out []Telemetry
		for i := 0; i < 5; i++ {
			m.Step(time.Millisecond)
			out = append(out, m.sampleNow())
		}
		return out
	}
	for fi, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad, zero := cpu.ComputeLoad, cpu.ComputeLoad
			*field(&bad) = v
			*field(&zero) = 0
			got, want := run(bad), run(zero)
			for i := range want {
				g, w := got[i], want[i]
				if g.CurrentA != w.CurrentA || g.RawA != w.RawA || g.PerCore[0] != w.PerCore[0] || g.PerCore[1] != w.PerCore[1] {
					t.Fatalf("field %d = %v, sample %d: %+v, want %+v", fi, v, i, g, w)
				}
			}
		}
	}
}
