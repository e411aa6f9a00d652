package adapt

import (
	"testing"
	"time"

	"radshield/internal/guard"
	"radshield/internal/telemetry"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.EscalateAt = 0 },
		func(c *Config) { c.RelaxBelow = 0 },
		func(c *Config) { c.RelaxBelow = c.EscalateAt }, // no hysteresis band
		func(c *Config) { c.PanicAt = c.EscalateAt / 2 },
		func(c *Config) { c.HoldFor = -time.Second },
		func(c *Config) { c.Weights[SignalILDDetect] = -1 },
		func(c *Config) { c.Start = Level(NumLevels) },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEscalateOnSignalBurst(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	if c.Level() != LevelNominal {
		t.Fatalf("start level %v, want nominal", c.Level())
	}
	// One detection (weight 1) is below EscalateAt=2: no move.
	c.Note(time.Minute, SignalILDDetect)
	if d := c.Observe(time.Minute); d.Changed {
		t.Fatalf("single detection escalated: %+v", d)
	}
	// A second inside the window crosses the bar.
	c.Note(2*time.Minute, SignalILDDetect)
	d := c.Observe(2 * time.Minute)
	if !d.Changed || d.Level != LevelElevated {
		t.Fatalf("burst did not escalate one rung: %+v", d)
	}
	// The move consumed the evidence: next sample holds steady.
	if d := c.Observe(3 * time.Minute); d.Changed || d.Score != 0 {
		t.Fatalf("escalation did not clear the window: %+v", d)
	}
	tr := c.Trace()
	if len(tr) != 1 || tr[0].Reason != "escalate" || tr[0].From != LevelNominal || tr[0].To != LevelElevated {
		t.Fatalf("trace %+v", tr)
	}
}

func TestPanicJumpsToMax(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	// Two watchdog resets (weight 3 each) score 6 ≥ PanicAt.
	c.Note(time.Minute, SignalWatchdogReset)
	c.Note(time.Minute+time.Second, SignalWatchdogReset)
	d := c.Observe(2 * time.Minute)
	if !d.Changed || d.Level != LevelMax {
		t.Fatalf("storm burst did not panic to max: %+v", d)
	}
	if tr := c.Trace(); len(tr) != 1 || tr[0].Reason != "panic" {
		t.Fatalf("trace %+v", tr)
	}
}

func TestRelaxRequiresQuietWindowAndDwell(t *testing.T) {
	cfg := DefaultConfig()
	c := mustNew(t, cfg)
	c.Note(time.Minute, SignalILDRefire) // weight 2 → escalate
	if d := c.Observe(time.Minute); d.Level != LevelElevated {
		t.Fatalf("setup escalation failed: %+v", d)
	}
	// Quiet, but inside HoldFor: must not relax yet.
	if d := c.Observe(time.Minute + cfg.HoldFor - time.Second); d.Changed {
		t.Fatalf("relaxed before the dwell floor: %+v", d)
	}
	// Past the dwell floor with an empty window: one rung down.
	d := c.Observe(time.Minute + cfg.HoldFor)
	if !d.Changed || d.Level != LevelNominal {
		t.Fatalf("quiet dwell did not relax: %+v", d)
	}
	// Relaxing restarts the dwell clock: the next rung needs HoldFor again.
	if d := c.Observe(time.Minute + cfg.HoldFor + time.Minute); d.Changed {
		t.Fatalf("second relax skipped the dwell floor: %+v", d)
	}
	at := time.Minute + 2*cfg.HoldFor
	if d := c.Observe(at); !d.Changed || d.Level != LevelRelaxed {
		t.Fatalf("dwell elapsed but no relax: %+v", d)
	}
	// At the floor there is nowhere lower to go.
	if d := c.Observe(at + 2*cfg.HoldFor); d.Changed {
		t.Fatalf("relaxed below the floor: %+v", d)
	}
}

func TestHysteresisBandHoldsLevel(t *testing.T) {
	cfg := DefaultConfig() // EscalateAt 2, RelaxBelow 1
	c := mustNew(t, cfg)
	// A lone detection per window keeps the score at 1 — inside the band
	// [RelaxBelow, EscalateAt): the level must not flap either way.
	for i := 1; i <= 6; i++ {
		at := time.Duration(i) * (cfg.Window + 2*time.Minute)
		c.Note(at, SignalILDDetect)
		if d := c.Observe(at); d.Changed {
			t.Fatalf("score-1 trickle moved the level at %v: %+v", at, d)
		}
	}
	if c.Level() != LevelNominal {
		t.Fatalf("level drifted to %v", c.Level())
	}
}

func TestWindowExpiryDropsScore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HoldFor = 0
	c := mustNew(t, cfg)
	c.Note(time.Minute, SignalILDDetect)
	c.Observe(time.Minute)
	// After the window slides past the signal the score is exactly zero
	// and (HoldFor=0) the controller relaxes.
	d := c.Observe(time.Minute + cfg.Window + time.Second)
	if d.Score != 0 {
		t.Fatalf("expired signal still scored: %+v", d)
	}
	if !d.Changed || d.Level != LevelRelaxed {
		t.Fatalf("quiet window with zero dwell floor did not relax: %+v", d)
	}
}

func TestDwellAccounting(t *testing.T) {
	cfg := DefaultConfig()
	c := mustNew(t, cfg)
	c.Observe(10 * time.Minute) // 10m at nominal
	c.Note(10*time.Minute, SignalILDRefire)
	c.Observe(10 * time.Minute) // escalates at t=10m
	c.Observe(25 * time.Minute) // 15m at elevated
	if got := c.Dwell(LevelNominal); got != 10*time.Minute {
		t.Errorf("nominal dwell %v, want 10m", got)
	}
	if got := c.Dwell(LevelElevated); got != 15*time.Minute {
		t.Errorf("elevated dwell %v, want 15m", got)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []Move {
		c := mustNew(t, DefaultConfig())
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 30 * time.Second
			switch {
			case i%17 == 3:
				c.Note(at, SignalILDDetect)
			case i%29 == 7:
				c.Note(at, SignalWatchdogReset)
			case i%11 == 5:
				c.Note(at, SignalEMRMismatch)
			}
			c.Observe(at)
		}
		return c.Trace()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("scripted signal pattern produced no moves")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at move %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestZeroWeightsGetDefaults(t *testing.T) {
	cfg := Config{Window: 10 * time.Minute, EscalateAt: 2, RelaxBelow: 1, Start: LevelNominal}
	c := mustNew(t, cfg)
	c.Note(time.Minute, SignalILDRefire) // default weight 2
	if d := c.Observe(time.Minute); !d.Changed {
		t.Fatalf("default weights not applied: %+v", d)
	}
}

func TestInstrumentsRecordMoves(t *testing.T) {
	reg := telemetry.NewRegistry(64)
	c, err := New(DefaultConfig(), NewInstruments(reg))
	if err != nil {
		t.Fatal(err)
	}
	c.Note(time.Minute, SignalILDRefire)
	c.Observe(time.Minute)
	var events int
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind == telemetry.KindAdaptLevel {
			events++
			if ev.Fields["reason"] != "escalate" {
				t.Errorf("event fields %+v", ev.Fields)
			}
		}
	}
	if events != 1 {
		t.Errorf("emitted %d adapt_level_change events, want 1", events)
	}
}

// TestPostureLadderMonotone pins the knobs the campaign's overhead claim
// rests on: ascending the ladder, thresholds only tighten, bubbles only
// densify, redundancy cost only grows, and only the cheapest rung runs
// serial-with-checksum.
func TestPostureLadderMonotone(t *testing.T) {
	redundancyCost := func(p Posture) int {
		if p.SerialChecksum {
			return 1 // single checksum-guarded run
		}
		switch p.Redundancy {
		case guard.RedundancyDMRChecksum:
			return 2
		default: // TMR
			return 3
		}
	}
	prev := PostureFor(LevelRelaxed)
	if !prev.SerialChecksum || prev.Beacon {
		t.Fatalf("relaxed posture %+v", prev)
	}
	for l := LevelNominal; l <= LevelMax; l++ {
		p := PostureFor(l)
		if p.Level != l {
			t.Errorf("PostureFor(%v).Level = %v", l, p.Level)
		}
		if p.ILDThresholdA >= prev.ILDThresholdA {
			t.Errorf("%v threshold %v not tighter than %v's %v", l, p.ILDThresholdA, prev.Level, prev.ILDThresholdA)
		}
		if p.BubbleEvery >= prev.BubbleEvery {
			t.Errorf("%v bubble cadence %v not denser than %v's %v", l, p.BubbleEvery, prev.Level, prev.BubbleEvery)
		}
		if redundancyCost(p) < redundancyCost(prev) {
			t.Errorf("%v redundancy cheaper than %v", l, prev.Level)
		}
		if p.HousekeepEvery >= prev.HousekeepEvery {
			t.Errorf("%v housekeeping %v not faster than %v's %v", l, p.HousekeepEvery, prev.Level, prev.HousekeepEvery)
		}
		if p.SerialChecksum {
			t.Errorf("%v claims the serial rung", l)
		}
		prev = p
	}
	// Every rung's threshold stays below the smallest SEL amplitude the
	// fault presets generate (70 mA) — a latchup is detectable anywhere
	// on the ladder.
	for l := LevelRelaxed; l <= LevelMax; l++ {
		if th := PostureFor(l).ILDThresholdA; th >= 0.07 {
			t.Errorf("%v threshold %v cannot see a 70 mA latchup", l, th)
		}
	}
}
