package main

import (
	"strings"
	"testing"

	"radshield/internal/experiments"
	"radshield/internal/machine"
	"radshield/internal/power"
)

// shipped records what a verdict gate sends down the feed.
type shipped []string

func (s *shipped) ship(vc uint8, msg string) {
	if vc == 0 {
		*s = append(*s, msg)
	}
}

// checkGate runs one gate case: an empty want means the trial set passes
// and nothing reaches the priority-0 channel; otherwise the gate must
// fail and ship exactly one protection_failure event starting with want.
func checkGate(t *testing.T, want string, gate func(shipFunc) error) {
	t.Helper()
	var p0 shipped
	err := gate(p0.ship)
	if want == "" {
		if err != nil || len(p0) != 0 {
			t.Fatalf("passing trials: err = %v, p0 = %q", err, p0)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), "PROTECTION FAILURE") {
		t.Fatalf("err = %v, want a PROTECTION FAILURE", err)
	}
	if len(p0) != 1 || !strings.HasPrefix(p0[0], want) {
		t.Fatalf("p0 = %q, want one event starting %q", p0, want)
	}
}

func TestGuardGate(t *testing.T) {
	good := func() ([]experiments.GuardTrial, []experiments.WatchdogTrial) {
		return []experiments.GuardTrial{
				{Kind: power.FaultStuck, Survived: true, UnguardedMissedSELs: 1},
				{Kind: power.FaultDropout, Survived: true, MissedSELs: 1},
			}, []experiments.WatchdogTrial{
				{Executor: 1, Cause: "hang", TMROutputs: true, Degraded: true},
			}
	}
	for _, tc := range []struct {
		name   string
		mutate func([]experiments.GuardTrial, []experiments.WatchdogTrial)
		want   string
	}{
		{"pass", func([]experiments.GuardTrial, []experiments.WatchdogTrial) {}, ""},
		{"missed SEL behind a stuck sensor", func(g []experiments.GuardTrial, _ []experiments.WatchdogTrial) { g[0].MissedSELs = 2 },
			"protection_failure campaign=guard missed_sels=2"},
		{"board lost", func(g []experiments.GuardTrial, _ []experiments.WatchdogTrial) { g[1].Survived = false },
			"protection_failure campaign=guard board_lost_under=dropout"},
		{"wrong TMR outputs", func(_ []experiments.GuardTrial, w []experiments.WatchdogTrial) { w[0].TMROutputs = false },
			"protection_failure campaign=watchdog cause=hang executor=1"},
		{"wrong degraded outputs", func(_ []experiments.GuardTrial, w []experiments.WatchdogTrial) { w[0].Degraded = false },
			"protection_failure campaign=watchdog cause=hang executor=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, w := good()
			tc.mutate(g, w)
			checkGate(t, tc.want, func(ship shipFunc) error { return guardGate(ship, g, w) })
		})
	}
}

func TestOSKernelGate(t *testing.T) {
	good := func() []experiments.OSFaultTrial {
		return []experiments.OSFaultTrial{
			{Class: machine.OSFaultKernelPanic, Survived: true, CleanReplay: true, WatchdogResets: 1, UnguardedMissedSELs: 1},
			{Class: machine.OSFaultSchedulerStall, Survived: true, CleanReplay: true, TMRGolden: true, DegradedGolden: true},
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func([]experiments.OSFaultTrial)
		want   string
	}{
		{"pass", func([]experiments.OSFaultTrial) {}, ""},
		{"undetected", func(o []experiments.OSFaultTrial) { o[0].DetectLatency = -1 },
			"protection_failure campaign=oskernel class=kernel_panic cause=undetected"},
		{"board lost", func(o []experiments.OSFaultTrial) { o[0].Survived = false },
			"protection_failure campaign=oskernel class=kernel_panic cause=board_lost"},
		{"missed SEL", func(o []experiments.OSFaultTrial) { o[1].MissedSELs = 1 },
			"protection_failure campaign=oskernel class=scheduler_stall missed_sels=1"},
		{"dirty replay", func(o []experiments.OSFaultTrial) { o[0].CleanReplay = false },
			"protection_failure campaign=oskernel class=kernel_panic cause=dirty_replay"},
		{"wrong schedstall TMR outputs", func(o []experiments.OSFaultTrial) { o[1].TMRGolden = false },
			"protection_failure campaign=oskernel class=scheduler_stall cause=wrong_outputs"},
		{"wrong schedstall degraded outputs", func(o []experiments.OSFaultTrial) { o[1].DegradedGolden = false },
			"protection_failure campaign=oskernel class=scheduler_stall cause=wrong_outputs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := good()
			tc.mutate(o)
			checkGate(t, tc.want, func(ship shipFunc) error { return osKernelGate(ship, o) })
		})
	}
}

// A passing oskernel gate ships the recovery counts the ground
// station's /state tallies from their message prefixes.
func TestOSKernelGateShipsRecoveryCounts(t *testing.T) {
	var hk []string
	trials := []experiments.OSFaultTrial{
		{Class: machine.OSFaultKernelPanic, Survived: true, CleanReplay: true, WatchdogResets: 1},
		{Class: machine.OSFaultFSCorruption, Survived: true, CleanReplay: true, Recoveries: 6},
	}
	if err := osKernelGate(func(vc uint8, msg string) { hk = append(hk, msg) }, trials); err != nil {
		t.Fatal(err)
	}
	want := []string{"watchdog_reset count=1 classes=2", "recorder_recovered count=6 classes=2"}
	if strings.Join(hk, "|") != strings.Join(want, "|") {
		t.Fatalf("shipped %q, want %q", hk, want)
	}
}

func TestAdaptiveGate(t *testing.T) {
	good := func() []experiments.AdaptiveTrial {
		arm := experiments.AdaptiveArm{Survived: true, MissedSELs: 1}
		return []experiments.AdaptiveTrial{{Profile: "leo", Static: arm, Adaptive: arm}}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*experiments.AdaptiveTrial)
		want   string
	}{
		{"pass", func(*experiments.AdaptiveTrial) {}, ""},
		{"fewer missed SELs and SDC on both arms still pass", func(a *experiments.AdaptiveTrial) {
			a.Adaptive.MissedSELs = 0
			a.Static.SDC, a.Adaptive.SDC = true, true
		}, ""},
		{"adaptive arm lost the board", func(a *experiments.AdaptiveTrial) { a.Adaptive.Survived = false },
			"protection_failure campaign=adaptive profile=leo cause=board_lost"},
		{"survival differs from static", func(a *experiments.AdaptiveTrial) { a.Static.Survived = false },
			"protection_failure campaign=adaptive profile=leo cause=board_lost"},
		{"missed-SEL regression", func(a *experiments.AdaptiveTrial) { a.Adaptive.MissedSELs = 2 },
			"protection_failure campaign=adaptive profile=leo missed_sels=2 static=1"},
		{"SDC regression", func(a *experiments.AdaptiveTrial) { a.Adaptive.SDC = true },
			"protection_failure campaign=adaptive profile=leo cause=sdc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := good()
			tc.mutate(&a[0])
			checkGate(t, tc.want, func(ship shipFunc) error { return adaptiveGate(ship, a) })
		})
	}
}
