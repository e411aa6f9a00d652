package experiments

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/machine"
	"radshield/internal/mission"
	"radshield/internal/power"
	"radshield/internal/resultcache"
)

// The result cache's wire format, pinned. Every cached result type has
// one literal here with each field set to a distinct value, and every
// struct that a cache key encodes appears at its defaults. Their hex
// encodings live in testdata/cache_wire.txt. A byte that moves there
// means a domain's stored payloads or keys moved. Every key starts with
// the code fingerprint (see RESULTCACHE.md), so a store written by other
// code never replays them; once the move is meant, rewrite the golden
// with
//
//	go test ./internal/experiments -run TestCacheWireFormat -update
//
// The literals are not campaign output, so the golden holds on every
// architecture.

// wireResults holds one literal per cached result type, named by the
// domain that stores it.
var wireResults = []struct {
	name string
	v    any
}{
	{"table2", table2State{
		EpisodeHit: []bool{true, false},
		Latencies:  []time.Duration{-1500 * time.Millisecond, 42 * time.Second},
		FPSamples:  17,
		NegSamples: 90210,
	}},
	{"fig10", 0.375},
	{"threshold", ThresholdPoint{ThresholdA: 0.055, FalseNegativeRate: 0.125, FalsePositiveRate: 0.0025}},
	{"table7", fault.DetectedError},
	{"fig11", Fig11Row{Workload: "sha256", Serial3MRRel: 3.02, EMRRel: 1.17, EMRSlowdownPct: 17.5}},
	{"guard", GuardTrial{
		Kind:                power.FaultOffset,
		Onset:               30 * time.Minute,
		FaultDuration:       20 * time.Minute,
		DetectSamples:       41,
		FalseHealthy:        -1500 * time.Millisecond,
		DegradedDwell:       7 * time.Minute,
		BlindCycles:         3,
		FinalMode:           guard.ModeHardwareTrip,
		MissedSELs:          5,
		UnguardedMissedSELs: 6,
		PowerCycles:         8,
		UnguardedCycles:     9,
		Survived:            true,
		UnguardedSurvived:   false,
	}},
	{"watchdog", WatchdogTrial{
		Executor:   2,
		Cause:      "crash",
		Kills:      4,
		Crashes:    5,
		Mode:       guard.RedundancySerial,
		Backoff:    -40 * time.Millisecond,
		TMROutputs: true,
		Degraded:   false,
	}},
	{"downlink", DownlinkTrial{
		Loss:           0.2,
		Blackout:       2 * time.Minute,
		Policy:         downlink.PolicyFIFO,
		P0Enqueued:     101,
		P0Delivered:    102,
		Enqueued:       1003,
		Delivered:      1004,
		Retransmits:    55,
		Timeouts:       56,
		Evicted:        7,
		Skipped:        8,
		Beacons:        9,
		DrainedAt:      -time.Nanosecond,
		CleanDelivered: 1010,
		CleanDrainedAt: 95 * time.Minute,
		P0Recovered:    true,
	}},
	{"oskernel", OSFaultTrial{
		Class:                machine.OSFaultSchedulerStall,
		Onset:                40 * time.Minute,
		DetectLatency:        -time.Second,
		RecoveryTime:         12 * time.Minute,
		WatchdogResets:       1,
		HangCycles:           2,
		IOErrors:             3,
		Recoveries:           4,
		EventsEnqueued:       50,
		UnguardedEnqueued:    51,
		EventsLost:           6,
		UnguardedLost:        7,
		MissedSELs:           8,
		UnguardedMissedSELs:  9,
		PowerCycles:          10,
		UnguardedCycles:      11,
		CleanReplay:          true,
		UnguardedCleanReplay: false,
		Survived:             true,
		UnguardedSurvived:    false,
		Kills:                12,
		TMRGolden:            false,
		DegradedGolden:       true,
		StallOverrun:         1500 * time.Millisecond,
	}},
	{"adaptive", AdaptiveTrial{
		Profile: "leo-saa",
		Static: AdaptiveArm{
			Survived: true, SDC: false,
			MissedSELs: 1, Detections: 2, WDResets: 3, Corrected: 4, Vetoed: 5,
			QuietBubble: 6 * time.Second, ActiveBubble: 7 * time.Second,
			QuietJ: 8.5, ActiveJ: 9.25,
			P0Enqueued: 10, P0Delivered: 11, AllEnqueued: 12, AllDelivered: 13,
			DrainedAt:  -time.Minute,
			FinalLevel: adapt.LevelMax,
			Dwell:      [adapt.NumLevels]time.Duration{14 * time.Second, 15 * time.Second, 16 * time.Second, 17 * time.Second},
		},
		Adaptive: AdaptiveArm{
			Survived: false, SDC: true,
			MissedSELs: 21, Detections: 22, WDResets: 23, Corrected: 24, Vetoed: 25,
			QuietBubble: 26 * time.Second, ActiveBubble: 27 * time.Second,
			QuietJ: 28.5, ActiveJ: 29.25,
			P0Enqueued: 30, P0Delivered: 31, AllEnqueued: 32, AllDelivered: 33,
			DrainedAt:  34 * time.Minute,
			FinalLevel: adapt.LevelElevated,
			Dwell:      [adapt.NumLevels]time.Duration{35 * time.Second, 36 * time.Second, 37 * time.Second, 38 * time.Second},
		},
		Moves: []adapt.Move{
			{T: 39 * time.Minute, From: adapt.LevelNominal, To: adapt.LevelElevated, Score: 2.5, Reason: "escalate"},
			{T: 41 * time.Minute, From: adapt.LevelElevated, To: adapt.LevelRelaxed, Score: 0.5, Reason: "relax"},
		},
	}},
	{"mission", missionPair{
		Protected:   missionResult{Damaged: false, SDC: true, LatchupsCleared: 3, SEUsOutvoted: 11},
		Unprotected: missionResult{Damaged: true, SDC: false, LatchupsCleared: 4, SEUsOutvoted: 12},
	}},
}

// wireKey is one pinned key encoding.
type wireKey struct {
	name string
	enc  func(*resultcache.Enc)
}

// wireKeys holds the key encodings of the campaign configs and of
// every struct a key encodes whole, at their defaults.
func wireKeys() []wireKey {
	keys := []wireKey{
		{"key/SELConfig", func(e *resultcache.Enc) { encSELConfig(e, DefaultSELConfig()) }},
		{"key/DownlinkCampaignConfig", func(e *resultcache.Enc) {
			encDownlinkCampaignConfig(e, DefaultDownlinkCampaignConfig())
		}},
		{"key/guard.SupervisorConfig", func(e *resultcache.Enc) { e.Value(guard.DefaultSupervisorConfig()) }},
		{"key/guard.WatchdogConfig", func(e *resultcache.Enc) { e.Value(guard.DefaultWatchdogConfig()) }},
		{"key/fault.LEO", func(e *resultcache.Enc) { e.Value(fault.LEO) }},
		{"key/adapt.Config", func(e *resultcache.Enc) { e.Value(adapt.DefaultConfig()) }},
	}
	for _, p := range mission.Catalog() {
		keys = append(keys, wireKey{"key/mission.Profile/" + p.Name, func(e *resultcache.Enc) { e.Value(p) }})
	}
	return keys
}

// renderCacheWire renders every pinned encoding as "name hex" lines.
func renderCacheWire() string {
	var b strings.Builder
	b.WriteString("# Result-cache wire format: one line per cached result type (named by\n")
	b.WriteString("# its domain) and per struct a cache key encodes, as \"name hex\".\n")
	b.WriteString("# A changed line moves stored payloads or keys.\n")
	line := func(name string, enc func(*resultcache.Enc)) {
		var e resultcache.Enc
		enc(&e)
		fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(e.Bytes()))
	}
	for _, r := range wireResults {
		line(r.name, func(e *resultcache.Enc) { e.Value(r.v) })
	}
	for _, k := range wireKeys() {
		line(k.name, k.enc)
	}
	return b.String()
}

// TestCacheWireFormat holds every cached payload and key encoding to
// testdata/cache_wire.txt byte for byte, and reads each result literal
// back from its encoding.
func TestCacheWireFormat(t *testing.T) {
	for _, r := range wireResults {
		var e resultcache.Enc
		e.Value(r.v)
		got := reflect.New(reflect.TypeOf(r.v))
		d := resultcache.NewDec(e.Bytes())
		d.Value(got.Interface())
		if err := d.Close(); err != nil {
			t.Errorf("%s: decode: %v", r.name, err)
		} else if !reflect.DeepEqual(got.Elem().Interface(), r.v) {
			t.Errorf("%s: decoded %+v, want %+v", r.name, got.Elem().Interface(), r.v)
		}
	}

	path := filepath.Join("testdata", "cache_wire.txt")
	got := renderCacheWire()
	if *updatePinned {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read wire golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	for _, line := range strings.SplitAfter(got, "\n") {
		if !strings.Contains(string(want), line) {
			t.Errorf("not in %s: %s", path, line)
		}
	}
	t.Errorf("wire encodings differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
}
