package experiments

import (
	"strings"
	"testing"
	"time"

	"radshield/internal/machine"
)

// equivOSFault shrinks the OS-fault campaign to test scale: a 12-minute
// mission with the latchup cadence at 5 minutes still exercises the
// fault onset, one SEL reboot inside the fault window, and the
// watchdog/hang-cycle recovery paths.
func equivOSFault(workers int) OSFaultCampaignConfig {
	c := DefaultOSFaultCampaignConfig()
	c.SEL.Duration = 12 * time.Minute
	c.SEL.SELEvery = 5 * time.Minute
	c.SEL.Workers = workers
	c.Onsets = []time.Duration{4 * time.Minute}
	c.FaultDuration = 3 * time.Minute
	return c
}

func TestOSFaultCampaignValidation(t *testing.T) {
	for i, mod := range []func(*OSFaultCampaignConfig){
		func(c *OSFaultCampaignConfig) { c.Classes = nil },
		func(c *OSFaultCampaignConfig) { c.Classes = []machine.OSFaultKind{machine.OSFaultKind(42)} },
		func(c *OSFaultCampaignConfig) { c.Classes = []machine.OSFaultKind{machine.OSFaultNone} },
		func(c *OSFaultCampaignConfig) { c.Onsets = nil },
		func(c *OSFaultCampaignConfig) { c.Onsets = []time.Duration{0} },
		func(c *OSFaultCampaignConfig) { c.FaultDuration = -time.Second },
		func(c *OSFaultCampaignConfig) { c.Watchdog.Deadline = replicaStall },
	} {
		c := DefaultOSFaultCampaignConfig()
		mod(&c)
		if _, _, err := OSFaultCampaign(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestParseOSFaultClasses(t *testing.T) {
	all, err := ParseOSFaultClasses("")
	if err != nil || len(all) != 5 {
		t.Fatalf("empty spec = %v, %v; want the full 5-class grid", all, err)
	}
	got, err := ParseOSFaultClasses("panic, fscorrupt")
	if err != nil {
		t.Fatal(err)
	}
	want := []machine.OSFaultKind{machine.OSFaultKernelPanic, machine.OSFaultFSCorruption}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParseOSFaultClasses = %v, want %v", got, want)
	}
	if _, err := ParseOSFaultClasses("panic,warp"); err == nil ||
		!strings.Contains(err.Error(), "schedstall") {
		t.Fatalf("bad class spec: err = %v, want an error listing the valid ids", err)
	}
}

// TestOSFaultCampaignOutcomes is the ISSUE acceptance shape at test
// scale: for every fault class the guarded arm recovers — bounded
// detection latency, zero missed SELs, no corrupt replay — while the
// bare arm loses the board (panic, hang) or silently drops a strictly
// larger slice of the mission record (ioburst, fscorrupt).
func TestOSFaultCampaignOutcomes(t *testing.T) {
	trials, tbl, err := OSFaultCampaign(equivOSFault(0))
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(trials) != 5 {
		t.Fatalf("got %d trials, want 5", len(trials))
	}
	for _, tr := range trials {
		if tr.DetectLatency < 0 {
			t.Errorf("%v: never detected", tr.Class)
		}
		if !tr.Survived {
			t.Errorf("%v: guarded arm lost the board", tr.Class)
		}
		if tr.MissedSELs != 0 {
			t.Errorf("%v: guarded arm missed %d SELs", tr.Class, tr.MissedSELs)
		}
		if !tr.CleanReplay || !tr.UnguardedCleanReplay {
			t.Errorf("%v: corrupt state replayed (g=%v u=%v)", tr.Class, tr.CleanReplay, tr.UnguardedCleanReplay)
		}
		switch tr.Class {
		case machine.OSFaultKernelPanic:
			if tr.WatchdogResets < 1 {
				t.Errorf("panic: no watchdog reset (got %d)", tr.WatchdogResets)
			}
			if tr.DetectLatency > 2*osWatchdogTimeout {
				t.Errorf("panic: detection latency %v not bounded by the watchdog", tr.DetectLatency)
			}
			if tr.UnguardedSurvived {
				t.Error("panic: bare board survived without a watchdog")
			}
		case machine.OSFaultKernelHang:
			if tr.HangCycles < 1 {
				t.Errorf("hang: no supervisor hang cycle (got %d)", tr.HangCycles)
			}
			if tr.UnguardedSurvived {
				t.Error("hang: bare board survived a wedged kernel")
			}
		case machine.OSFaultIOErrorBurst:
			if tr.IOErrors == 0 {
				t.Error("ioburst: no IO errors landed")
			}
			if tr.UnguardedLost <= tr.EventsLost {
				t.Errorf("ioburst: bare arm lost %d records vs guarded %d, want strictly more",
					tr.UnguardedLost, tr.EventsLost)
			}
		case machine.OSFaultFSCorruption:
			if tr.Recoveries == 0 {
				t.Error("fscorrupt: no corrupt pages detected")
			}
			if tr.UnguardedLost <= tr.EventsLost {
				t.Errorf("fscorrupt: bare arm lost %d records vs guarded %d, want strictly more",
					tr.UnguardedLost, tr.EventsLost)
			}
		case machine.OSFaultSchedulerStall:
			if tr.Kills == 0 {
				t.Error("schedstall: watchdog never killed the starved executor")
			}
			if !tr.TMRGolden || !tr.DegradedGolden {
				t.Error("schedstall: EMR outputs diverged from golden")
			}
			if tr.StallOverrun <= 0 {
				t.Errorf("schedstall: bare runtime overrun %v, want positive", tr.StallOverrun)
			}
		}
	}
}
