package guard

import (
	"math"
	"testing"
	"time"

	"radshield/internal/ild"
	"radshield/internal/telemetry"
)

// trainedDetector fits a tiny ILD instance on clean quiescent samples
// around 1.55 A, with a 3-sample sustain window for fast tests.
func trainedDetector(t *testing.T) *ild.Detector {
	t.Helper()
	cfg := ild.DefaultConfig()
	cfg.SustainFor = 3 * time.Millisecond
	tr := ild.NewTrainer(cfg)
	for i := 0; i < 60; i++ {
		if !tr.Add(variedTel(time.Duration(i)*time.Millisecond, i)) {
			t.Fatalf("training sample %d rejected", i)
		}
	}
	det, err := tr.Fit()
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// fastSupervisorConfig shrinks the ladder constants so tests stay
// small: demote after 5 bad samples, stuck after 10 repeats, promote
// after 50 clean samples.
func fastSupervisorConfig() SupervisorConfig {
	cfg := DefaultSupervisorConfig()
	cfg.Health.StuckAfter = 10
	cfg.BadAfter = 5
	cfg.GoodAfter = 50
	cfg.RefireWindow = 10 * time.Second
	cfg.RefireLimit = 3
	cfg.BlindCycleEvery = 100 * time.Millisecond
	return cfg
}

func newSupervisor(t *testing.T, cfg SupervisorConfig) *Supervisor {
	t.Helper()
	s, err := NewSupervisor(trainedDetector(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSupervisorConfigValidation(t *testing.T) {
	det := trainedDetector(t)
	if _, err := NewSupervisor(nil, DefaultSupervisorConfig()); err == nil {
		t.Error("nil detector accepted")
	}
	for _, mod := range []func(*SupervisorConfig){
		func(c *SupervisorConfig) { c.BadAfter = 0 },
		func(c *SupervisorConfig) { c.GoodAfter = 0 },
		func(c *SupervisorConfig) { c.RefireLimit = -1 },
		func(c *SupervisorConfig) { c.RefireLimit = 3; c.RefireWindow = 0 },
		func(c *SupervisorConfig) { c.BlindCycleEvery = -time.Second },
		func(c *SupervisorConfig) { c.StaticLevelA = 0 },
		func(c *SupervisorConfig) { c.Health.StuckAfter = 0 },
	} {
		cfg := DefaultSupervisorConfig()
		mod(&cfg)
		if _, err := NewSupervisor(det, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

// TestStuckSensorWalksDownLadder is the ISSUE acceptance shape: a
// stuck-at fault demotes linear → static within a bounded number of
// samples, then (still stuck) static → hardware-trip-only.
func TestStuckSensorWalksDownLadder(t *testing.T) {
	cfg := fastSupervisorConfig()
	s := newSupervisor(t, cfg)

	now := time.Duration(0)
	step := func(raw float64) Decision {
		d := s.Observe(tel(now, raw))
		now += time.Millisecond
		return d
	}
	for i := 0; i < 20; i++ {
		if d := step(1.55 + 0.0001*float64(i%7)); d.Mode != ModeLinearModel || !d.SensorOK {
			t.Fatalf("healthy warm-up sample %d: %+v", i, d)
		}
	}

	// Freeze the sensor. The stuck run needs StuckAfter repeats to be
	// recognised, then BadAfter verdicts to demote — a hard bound of
	// StuckAfter+BadAfter samples per rung.
	bound := cfg.Health.StuckAfter + cfg.BadAfter
	var demotedAt, sample int
	for sample = 1; sample <= bound; sample++ {
		d := step(1.5503)
		if d.Demoted {
			if d.Mode != ModeStaticThreshold {
				t.Fatalf("first demotion landed on %v", d.Mode)
			}
			if d.Reason != "stuck" {
				t.Fatalf("demotion reason %q, want stuck", d.Reason)
			}
			demotedAt = sample
			break
		}
	}
	if demotedAt == 0 {
		t.Fatalf("no demotion within %d stuck samples", bound)
	}
	// Still frozen: the static rung is equally blind to a stuck sensor,
	// so the ladder keeps walking to hardware-trip-only.
	for sample = 1; sample <= cfg.BadAfter+1; sample++ {
		if d := step(1.5503); d.Demoted {
			if d.Mode != ModeHardwareTrip {
				t.Fatalf("second demotion landed on %v", d.Mode)
			}
			break
		}
	}
	if s.Mode() != ModeHardwareTrip {
		t.Fatalf("mode = %v after persistent stuck fault", s.Mode())
	}
	if s.Demotions() != 2 {
		t.Fatalf("Demotions = %d, want 2", s.Demotions())
	}
}

func TestRecoveryPromotesBackToLinear(t *testing.T) {
	cfg := fastSupervisorConfig()
	s := newSupervisor(t, cfg)
	now := time.Duration(0)
	step := func(raw float64) Decision {
		d := s.Observe(tel(now, raw))
		now += time.Millisecond
		return d
	}
	// Drive all the way down with a dropout (NaN) fault.
	for s.Mode() != ModeHardwareTrip {
		step(math.NaN())
	}
	// Sensor recovers: the ladder re-promotes one rung per GoodAfter
	// streak, static first, then linear.
	sawStatic := false
	for i := 0; i < 3*cfg.GoodAfter && s.Mode() != ModeLinearModel; i++ {
		d := step(1.55 + 0.0001*float64(i%7))
		if d.Promoted && d.Mode == ModeStaticThreshold {
			sawStatic = true
		}
	}
	if !sawStatic {
		t.Fatal("promotion skipped the static-threshold rung")
	}
	if s.Mode() != ModeLinearModel {
		t.Fatalf("mode = %v after recovery, want linear", s.Mode())
	}
	if s.Promotions() != 2 {
		t.Fatalf("Promotions = %d, want 2", s.Promotions())
	}
}

// TestBlindCyclesWhileSensorDark: while the sensor is unusable the
// supervisor commands precautionary power cycles on the configured
// period, so a latchup struck during the outage cannot reach the
// thermal damage horizon — the "zero missed SELs" mechanism.
func TestBlindCyclesWhileSensorDark(t *testing.T) {
	cfg := fastSupervisorConfig()
	s := newSupervisor(t, cfg)
	now := time.Duration(0)
	cycles := 0
	for i := 0; i < 350; i++ {
		d := s.Observe(tel(now, math.NaN()))
		if d.BlindCycle {
			cycles++
			s.NotePowerCycle(now)
		}
		now += time.Millisecond
	}
	// 350 ms of blindness at a 100 ms period: cycles at ~100, 200, 300.
	if cycles != 3 {
		t.Fatalf("blind cycles = %d, want 3", cycles)
	}
	if s.BlindCycles() != cycles {
		t.Fatalf("BlindCycles() = %d, want %d", s.BlindCycles(), cycles)
	}
	// A healthy sensor stops the cycling and restarts the period from
	// the next blind onset.
	for i := 0; i < 200; i++ {
		if d := s.Observe(variedTel(now, i)); d.BlindCycle {
			t.Fatal("blind cycle commanded while sensor healthy")
		}
		now += time.Millisecond
	}
}

// TestBiasRefireDemotes: an offset fault produces plausible readings —
// per-sample checks stay green — but the detector refires right after
// every power cycle. The refire rule catches the signature.
func TestBiasRefireDemotes(t *testing.T) {
	cfg := fastSupervisorConfig()
	s := newSupervisor(t, cfg)
	now := time.Duration(0)

	demoted := false
	for i := 0; i < 200 && !demoted; i++ {
		// +0.1 A bias over the trained baseline, with ADC jitter so the
		// stuck check stays quiet.
		d := s.Observe(tel(now, 1.65+0.0001*float64(i%7)))
		if !d.SensorOK {
			t.Fatalf("bias sample %d flagged by per-sample checks: %+v", i, d)
		}
		if d.Fired {
			// Flight response: power cycle, which cannot clear a sensor
			// bias — the detector refires a sustain-window later.
			s.NotePowerCycle(now)
		}
		if d.Demoted {
			demoted = true
			if d.Mode != ModeStaticThreshold || d.Reason != "refire" {
				t.Fatalf("refire demotion landed on %v with reason %q, want %v with \"refire\"", d.Mode, d.Reason, ModeStaticThreshold)
			}
		}
		now += time.Millisecond
	}
	if !demoted {
		t.Fatal("refire storm never demoted the ladder")
	}
}

func TestSupervisorTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(64)
	ins := NewInstruments(reg)
	cfg := fastSupervisorConfig()
	s := newSupervisor(t, cfg)
	s.SetInstruments(ins)
	if got := ins.Mode.Value(); got != 0 {
		t.Fatalf("guard_mode = %v at attach, want 0", got)
	}
	now := time.Duration(0)
	for s.Mode() == ModeLinearModel {
		s.Observe(tel(now, math.NaN()))
		now += time.Millisecond
	}
	if got := ins.Mode.Value(); got != float64(ModeStaticThreshold) {
		t.Fatalf("guard_mode = %v, want %v", got, float64(ModeStaticThreshold))
	}
	if ins.Demotions.Value() != 1 {
		t.Fatalf("guard_demotions_total = %d, want 1", ins.Demotions.Value())
	}
	if ins.BadSensorSamples.Value() == 0 {
		t.Fatal("guard_bad_sensor_samples_total never incremented")
	}
	var found bool
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind == telemetry.KindGuardMode &&
			ev.Fields["from"] == "linear_model" && ev.Fields["to"] == "static_threshold" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no guard_mode_change event; events: %v", reg.Snapshot().Events)
	}
}
