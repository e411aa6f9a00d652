package guard

import (
	"testing"
	"time"

	"radshield/internal/machine"
)

// liveTel is a healthy sample: varied current plus visible core
// progress, so neither the stuck check nor the wedge check can trip.
func liveTel(t time.Duration, i int) machine.Telemetry {
	m := tel(t, 1.55+0.0001*float64(i%7))
	m.PerCore[0].InstrPerSec = 2e9
	return m
}

// wedgedTel is what a hung kernel produces: zero retired instructions
// and a current reading latched to exactly the last value.
func wedgedTel(t time.Duration, latched float64) machine.Telemetry {
	return tel(t, latched)
}

func TestSupervisorHangValidation(t *testing.T) {
	det := trainedDetector(t)
	for _, mod := range []func(*SupervisorConfig){
		func(c *SupervisorConfig) { c.HangAfter = -1 },
		func(c *SupervisorConfig) { c.HeartbeatTimeout = -time.Second },
	} {
		cfg := DefaultSupervisorConfig()
		mod(&cfg)
		if _, err := NewSupervisor(det, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

// TestSupervisorHangCycleDetection pins the wedged-kernel signature:
// zero instruction progress AND a bit-identical current reading,
// sustained for HangAfter samples, commands an external power cycle.
// Either signal alone is innocent — an idle core parks, and a noisy ADC
// never repeats exactly — so the conjunction is hang-specific.
func TestSupervisorHangCycleDetection(t *testing.T) {
	cfg := fastSupervisorConfig()
	cfg.HangAfter = 5
	s := newSupervisor(t, cfg)

	now := time.Duration(0)
	var latched float64
	for i := 0; i < 20; i++ {
		m := liveTel(now, i)
		latched = m.CurrentA
		if d := s.Observe(m); d.HangCycle {
			t.Fatalf("healthy sample %d flagged as hang", i)
		}
		now += time.Millisecond
	}
	// Kernel wedges: readings latch. The cycle must land on exactly the
	// HangAfter'th wedged sample, no sooner.
	for i := 1; i <= cfg.HangAfter; i++ {
		d := s.Observe(wedgedTel(now, latched))
		now += time.Millisecond
		if got, want := d.HangCycle, i == cfg.HangAfter; got != want {
			t.Fatalf("wedged sample %d: HangCycle = %v, want %v", i, got, want)
		}
	}
	if s.HangCycles() != 1 {
		t.Fatalf("HangCycles = %d, want 1", s.HangCycles())
	}
	// The cycle revives the board; a healthy stream must not re-fire.
	s.NotePowerCycle(now)
	for i := 0; i < 20; i++ {
		if d := s.Observe(liveTel(now, i)); d.HangCycle {
			t.Fatal("hang cycle re-fired on a revived board")
		}
		now += time.Millisecond
	}
}

// TestSupervisorHangDisabledByDefault: HangAfter is opt-in; the default
// config must tolerate an idle parked core with a quiet ADC forever.
func TestSupervisorHangDisabledByDefault(t *testing.T) {
	s := newSupervisor(t, fastSupervisorConfig())
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		if d := s.Observe(wedgedTel(now, 1.5501)); d.HangCycle {
			t.Fatalf("hang cycle fired at sample %d with HangAfter = 0", i)
		}
		now += time.Millisecond
	}
}

// TestSupervisorHeartbeatGap: a panicked kernel stops delivering samples
// entirely; the first sample after the watchdog revives the board
// arrives with a tell-tale timestamp gap the supervisor must flag.
func TestSupervisorHeartbeatGap(t *testing.T) {
	cfg := fastSupervisorConfig()
	cfg.HeartbeatTimeout = 10 * time.Millisecond
	s := newSupervisor(t, cfg)

	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		if d := s.Observe(liveTel(now, i)); d.HeartbeatGap {
			t.Fatalf("gap flagged on a %v cadence", time.Millisecond)
		}
		now += time.Millisecond
	}
	now += 50 * time.Millisecond // the board was down: no samples at all
	if d := s.Observe(liveTel(now, 0)); !d.HeartbeatGap {
		t.Fatal("50ms sample gap not flagged")
	}
	now += time.Millisecond
	if d := s.Observe(liveTel(now, 1)); d.HeartbeatGap {
		t.Fatal("gap flag stuck after cadence resumed")
	}
}
