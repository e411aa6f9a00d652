package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/power"
	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
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

func TestTab7Gate(t *testing.T) {
	// good is a passing table: silent corruption only where no
	// redundancy scheme runs.
	good := func() map[string]*fault.Tally {
		return map[string]*fault.Tally{
			"None":      {Counts: [4]int{fault.SDC: 10, fault.NoEffect: 10}},
			"3-MR":      {Counts: [4]int{fault.Corrected: 15, fault.NoEffect: 5}},
			"EMR":       {Counts: [4]int{fault.Corrected: 15, fault.NoEffect: 5}},
			"EMR + MBU": {Counts: [4]int{fault.Corrected: 14, fault.NoEffect: 5, fault.DetectedError: 1}},
			"Checksum":  {Counts: [4]int{fault.SDC: 2, fault.DetectedError: 18}},
		}
	}
	for _, tc := range []struct {
		name   string
		scheme string // "": the passing table
		want   string
	}{
		{"pass", "", ""},
		{"SDC under 3-MR", "3-MR", "protection_failure campaign=table7 sdc=2"},
		{"SDC under EMR", "EMR", "protection_failure campaign=table7 sdc=2"},
		{"SDC under EMR + MBU", "EMR + MBU", "protection_failure campaign=table7 sdc=2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tallies := good()
			if tc.scheme != "" {
				tallies[tc.scheme].Counts[fault.SDC] = 2
			}
			checkGate(t, tc.want, func(ship shipFunc) error { return tab7Gate(ship, tallies) })
		})
	}
}

// The seed-derived campaigns follow -seed, and the default seed 1
// keeps their package defaults.
func TestCampaignSeedsFollowSeed(t *testing.T) {
	for _, tc := range []struct {
		seed, tab7, missions int64
	}{
		{1, experiments.DefaultTable7Config().Seed, experiments.DefaultMissionConfig().Seed},
		{5, 11, 7},
	} {
		sel := experiments.DefaultSELConfig()
		sel.Seed = tc.seed
		seu := experiments.SEUConfig{Size: 256 << 10, Seed: tc.seed + 41}
		if got := tab7Config(sel, seu).Seed; got != tc.tab7 {
			t.Errorf("-seed %d: Table 7 seed = %d, want %d", tc.seed, got, tc.tab7)
		}
		if got := missionConfig(sel).Seed; got != tc.missions {
			t.Errorf("-seed %d: mission seed = %d, want %d", tc.seed, got, tc.missions)
		}
	}
}

// checkFlags rejects every value radbench cannot run; an empty want
// means the flags pass.
func TestCheckFlags(t *testing.T) {
	tab2 := []string{"tab2"}
	for _, tc := range []struct {
		name    string
		hours   float64
		size    int
		runs    int
		osFault string
		targets []string
		dlAddr  string
		linkID  int
		want    string
	}{
		{"defaults", 4, 256 << 10, 20, "", tab2, "", 0, ""},
		{"smallest values", 1e-9, 1, 1, "", []string{"fig11", "tab7"}, "", 0, ""},
		{"osfault with oskernel", 4, 1, 1, "panic,hang", []string{"tab2", "oskernel"}, "", 0, ""},
		{"zero hours", 0, 1, 1, "", tab2, "", 0, "-hours 0,"},
		{"negative hours", -1, 1, 1, "", tab2, "", 0, "-hours -1,"},
		{"NaN hours", math.NaN(), 1, 1, "", tab2, "", 0, "-hours NaN,"},
		{"infinite hours", math.Inf(1), 1, 1, "", tab2, "", 0, "-hours +Inf,"},
		{"hours past time.Duration", 3e6, 1, 1, "", tab2, "", 0, "-hours 3e+06,"},
		{"zero size", 4, 0, 1, "", tab2, "", 0, "-size 0,"},
		{"negative size", 4, -5, 1, "", tab2, "", 0, "-size -5,"},
		{"zero runs", 4, 1, 0, "", tab2, "", 0, "-runs 0,"},
		{"unknown experiment", 4, 1, 1, "", []string{"tab2", "tab99"}, "", 0, `unknown experiment "tab99"`},
		{"bad osfault class", 4, 1, 1, "reboot", []string{"oskernel"}, "", 0, "reboot"},
		{"osfault without oskernel", 4, 1, 1, "panic", tab2, "", 0, "-osfault only applies"},
		{"link id 0 without downlink", 4, 1, 1, "", tab2, "", 0, ""},
		{"link id with downlink", 4, 1, 1, "", tab2, "127.0.0.1:7007", 65535, ""},
		{"link id 0 with downlink", 4, 1, 1, "", tab2, "127.0.0.1:7007", 0, "link id 0 out of range"},
		{"link id -1 with downlink", 4, 1, 1, "", tab2, "127.0.0.1:7007", -1, "link id -1 out of range"},
		{"link id 65536 with downlink", 4, 1, 1, "", tab2, "127.0.0.1:7007", 65536, "link id 65536 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.hours, tc.size, tc.runs, tc.osFault, tc.targets, tc.dlAddr, tc.linkID)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v, want none", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
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
// recoveryTrials is a passing oskernel campaign with watchdog resets
// and recorder recoveries in more than one trial.
func recoveryTrials() []experiments.OSFaultTrial {
	return []experiments.OSFaultTrial{
		{Class: machine.OSFaultKernelPanic, Onset: 20 * time.Minute, Survived: true, CleanReplay: true, WatchdogResets: 2},
		{Class: machine.OSFaultKernelHang, Onset: 30 * time.Minute, Survived: true, CleanReplay: true, WatchdogResets: 1, Recoveries: 1},
		{Class: machine.OSFaultFSCorruption, Onset: 20 * time.Minute, Survived: true, CleanReplay: true, Recoveries: 3},
	}
}

func TestOSKernelGateShipsRecoveryCounts(t *testing.T) {
	var hk []string
	if err := osKernelGate(func(vc uint8, msg string) { hk = append(hk, msg) }, recoveryTrials()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"watchdog_reset class=kernel_panic onset=20m0s",
		"watchdog_reset class=kernel_panic onset=20m0s",
		"watchdog_reset class=kernel_hang onset=30m0s",
		"recorder_recovered class=kernel_hang onset=30m0s",
		"recorder_recovered class=fs_corruption onset=20m0s",
		"recorder_recovered class=fs_corruption onset=20m0s",
		"recorder_recovered class=fs_corruption onset=20m0s",
	}
	if strings.Join(hk, "|") != strings.Join(want, "|") {
		t.Fatalf("shipped %q, want %q", hk, want)
	}
}

// TestOSKernelGateTalliesAtStation delivers what the gate ships, in
// order on its channel, to a ground station: the station's watchdog
// reset and recorder recovery counts must equal the campaign's.
func TestOSKernelGateTalliesAtStation(t *testing.T) {
	trials := recoveryTrials()
	st := downlink.NewStation(downlink.DefaultStationConfig())
	var seq [downlink.NumVC]uint32
	ship := func(vc uint8, msg string) {
		raw, err := downlink.EncodeFrame(downlink.Frame{Type: downlink.FrameData, Link: 2, VC: vc, Seq: seq[vc], Payload: []byte(msg)})
		if err != nil {
			t.Fatal(err)
		}
		seq[vc]++
		st.Ingest(raw, 0)
	}
	if err := osKernelGate(ship, trials); err != nil {
		t.Fatal(err)
	}
	var resets, recoveries uint64
	for _, tr := range trials {
		resets += uint64(tr.WatchdogResets)
		recoveries += uint64(tr.Recoveries)
	}
	rep := st.Report()
	if len(rep) != 1 || rep[0].WatchdogResets != resets || rep[0].RecorderRecoveries != recoveries {
		t.Fatalf("station report %+v, want %d watchdog resets and %d recorder recoveries", rep, resets, recoveries)
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

// A store that stopped writing still prints its summary, and the
// append error goes to stderr beside it.
func TestPrintCacheSummary(t *testing.T) {
	st := resultcache.Stats{Hits: 3, Misses: 1, Entries: 4, Bytes: 512}
	const line = "resultcache: 3 hits, 1 misses (75.0% hit rate), 4 entries, 512 bytes in rc\n"
	for _, tc := range []struct {
		name    string
		putErr  error
		wantErr string
	}{
		{"every miss stored", nil, ""},
		{"writes disabled", errors.New("write cache.data: no space left on device"),
			"radbench: result cache stopped storing arms: write cache.data: no space left on device\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			printCacheSummary(&stdout, &stderr, st, tc.putErr, "rc")
			if stdout.String() != line {
				t.Errorf("stdout = %q, want %q", stdout.String(), line)
			}
			if stderr.String() != tc.wantErr {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestTelemetryMux checks the -telemetry-http surface: /telemetry serves
// the registry's snapshot JSON, and /debug/vars carries the same
// snapshot as the expvar "radshield".
func TestTelemetryMux(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.DefaultEventCap)
	ild.NewInstruments(reg)
	emr.PreRegister(reg)
	mux := telemetryMux(reg)
	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		return rec.Body.Bytes()
	}

	var want bytes.Buffer
	if err := reg.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got := get("/telemetry"); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("GET /telemetry served\n%s\nwant the registry's snapshot\n%s", got, want.Bytes())
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	published, ok := vars["radshield"]
	if !ok {
		t.Fatal(`GET /debug/vars carries no "radshield"`)
	}
	wantSnap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(published, wantSnap) {
		t.Fatalf(`/debug/vars "radshield" is %s, want the registry's snapshot %s`, published, wantSnap)
	}
}
