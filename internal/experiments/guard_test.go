package experiments

import (
	"bytes"
	"testing"
	"time"

	"radshield/internal/guard"
	"radshield/internal/power"
)

// equivGuard is a short guard campaign: a mid-mission permanent fault
// with latchups frequent enough that both arms see episodes before and
// during the sensor outage.
func equivGuard(workers int) GuardCampaignConfig {
	c := DefaultGuardCampaignConfig()
	c.SEL.Duration = 12 * time.Minute
	c.SEL.SELEvery = 2 * time.Minute
	c.SEL.Workers = workers
	c.Kinds = []power.FaultKind{power.FaultStuck, power.FaultDropout}
	c.Onsets = []time.Duration{4 * time.Minute}
	c.FaultDurations = []time.Duration{0}
	return c
}

// TestGuardCampaignStuckSensorAcceptance is the ISSUE acceptance
// criterion: seed a stuck-at current-sensor fault mid-mission and show
// the guard demotes ILD to the static-threshold rung within a bounded
// number of samples, with zero missed SELs attributable to the stuck
// sensor — while the unguarded arm goes blind and loses the board.
func TestGuardCampaignStuckSensorAcceptance(t *testing.T) {
	c := equivGuard(1)
	c.Kinds = []power.FaultKind{power.FaultStuck}
	trials, tbl, err := GuardCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 {
		t.Fatalf("trials = %d, want 1", len(trials))
	}
	tr := trials[0]

	// Demotion latency is hard-bounded: StuckAfter repeats to recognise
	// the frozen register plus BadAfter verdicts to walk down a rung.
	bound := c.Supervisor.Health.StuckAfter + c.Supervisor.BadAfter
	if tr.DetectSamples < 0 || tr.DetectSamples > bound {
		t.Fatalf("DetectSamples = %d, want within (0, %d]", tr.DetectSamples, bound)
	}
	// A permanently stuck sensor walks the whole ladder down: the static
	// rung reads the same frozen register.
	if tr.FinalMode != guard.ModeHardwareTrip {
		t.Fatalf("FinalMode = %v, want hardware_trip", tr.FinalMode)
	}
	if tr.BlindCycles == 0 {
		t.Fatal("no precautionary blind cycles during the outage")
	}
	if tr.MissedSELs != 0 {
		t.Fatalf("guarded arm missed %d SELs, want 0", tr.MissedSELs)
	}
	if !tr.Survived {
		t.Fatal("guarded arm lost the board")
	}
	// The unguarded detector is blind behind the frozen reading: the
	// next latchup festers past the window and the board burns.
	if tr.UnguardedMissedSELs == 0 {
		t.Fatal("unguarded arm missed nothing — the fault model has no teeth")
	}
	if tr.UnguardedSurvived {
		t.Fatal("unguarded arm survived a blind permanent latchup")
	}
	if tbl.String() == "" {
		t.Fatal("empty table rendering")
	}
}

// TestGuardCampaignFalseHealthyBounded: the false-healthy window for a
// stuck fault is the recognition run itself, so it cannot exceed
// StuckAfter samples' worth of time.
func TestGuardCampaignFalseHealthyBounded(t *testing.T) {
	c := equivGuard(1)
	c.Kinds = []power.FaultKind{power.FaultStuck}
	trials, _, err := GuardCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	limit := time.Duration(c.Supervisor.Health.StuckAfter+1) * c.SEL.SampleEvery
	if fh := trials[0].FalseHealthy; fh <= 0 || fh > limit {
		t.Fatalf("FalseHealthy = %v, want within (0, %v]", fh, limit)
	}
	if trials[0].DegradedDwell == 0 {
		t.Fatal("permanent fault produced no degraded dwell")
	}
}

// TestWatchdogCampaignDegradesAndRecovers: every executor × cause point
// must keep outputs golden under TMR despite the bad core, settle on
// the DMR+checksum plan, and produce golden outputs again on the
// degraded retry.
func TestWatchdogCampaignDegradesAndRecovers(t *testing.T) {
	c := DefaultWatchdogCampaignConfig()
	trials, tbl, err := WatchdogCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 6 {
		t.Fatalf("trials = %d, want 3 executors x 2 causes", len(trials))
	}
	for _, tr := range trials {
		if !tr.TMROutputs {
			t.Errorf("executor %d %s: TMR outputs wrong despite 2-of-3 vote", tr.Executor, tr.Cause)
		}
		if !tr.Degraded {
			t.Errorf("executor %d %s: degraded retry outputs wrong", tr.Executor, tr.Cause)
		}
		if tr.Mode != guard.RedundancyDMRChecksum {
			t.Errorf("executor %d %s: mode = %v, want dmr_checksum", tr.Executor, tr.Cause, tr.Mode)
		}
		if tr.Backoff != c.Watchdog.BackoffBase {
			t.Errorf("executor %d %s: backoff = %v, want %v", tr.Executor, tr.Cause, tr.Backoff, c.Watchdog.BackoffBase)
		}
		switch tr.Cause {
		case "hang":
			if tr.Kills != c.Datasets || tr.Crashes != 0 {
				t.Errorf("hang trial executor %d: kills/crashes = %d/%d, want %d/0",
					tr.Executor, tr.Kills, tr.Crashes, c.Datasets)
			}
		case "crash":
			if tr.Crashes != c.Datasets || tr.Kills != 0 {
				t.Errorf("crash trial executor %d: kills/crashes = %d/%d, want 0/%d",
					tr.Executor, tr.Kills, tr.Crashes, c.Datasets)
			}
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty table rendering")
	}
}

// watchdogJob must meet the EMR input contract: its inputs are valid
// only until it returns, so its output may not be a view of them.
func TestWatchdogJobDoesNotRetainInputs(t *testing.T) {
	inputs := func() [][]byte {
		return [][]byte{[]byte("watchdog chunk zero"), {0, 1, 2, 3, 0xff}}
	}
	in := inputs()
	out, err := watchdogJob(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	kept := bytes.Clone(out)
	for _, buf := range in {
		for i := range buf {
			buf[i] ^= 0xff
		}
	}
	if !bytes.Equal(out, kept) {
		t.Fatal("overwriting the inputs changed the output")
	}
	again, err := watchdogJob(nil, inputs())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, again) {
		t.Fatalf("output %x, but a second call on fresh copies gave %x", out, again)
	}
}

// watchdogJob must meet the EMR append contract: with any room in dst
// it returns the bytes it returns with a nil dst, and an output that
// fits lands in dst and leaves the capacity past it untouched.
func TestWatchdogJobAppendsToDst(t *testing.T) {
	in := [][]byte{[]byte("watchdog chunk zero"), {0, 1, 2, 3, 0xff}}
	want, err := watchdogJob(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	const canary = 0xa5
	for room := 0; room <= len(want)+8; room++ {
		backing := bytes.Repeat([]byte{canary}, room)
		got, err := watchdogJob(backing[:0], in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("with %d bytes of room: output %x, want %x", room, got, want)
		}
		if room < len(got) {
			continue
		}
		if &got[0] != &backing[0] {
			t.Fatalf("with %d bytes of room: the output did not land in dst", room)
		}
		if n := bytes.Count(backing[len(got):], []byte{canary}); n != room-len(got) {
			t.Fatalf("with %d bytes of room: %d canary bytes past the output changed", room, room-len(got)-n)
		}
	}
}

func TestParallelEquivalenceGuardCampaign(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := GuardCampaign(equivGuard(workers))
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceWatchdogCampaign(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		c := DefaultWatchdogCampaignConfig()
		c.Workers = workers
		_, tbl, err := WatchdogCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}
