package downlink

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"radshield/internal/telemetry"
)

func encData(t *testing.T, link uint16, vc uint8, seq uint32, payload string) []byte {
	t.Helper()
	raw, err := EncodeFrame(Frame{Type: FrameData, Link: link, VC: vc, Seq: seq, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestStationInOrderDelivery(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	acks := st.Ingest(encData(t, 1, 0, 0, "a"), time.Second)
	if len(acks) != 1 {
		t.Fatalf("acks = %d", len(acks))
	}
	f, _, err := DecodeFrame(acks[0])
	if err != nil {
		t.Fatal(err)
	}
	next, err := AckValue(f)
	if err != nil || next != 1 || f.VC != 0 || f.Link != 1 {
		t.Fatalf("ack %+v next=%d err=%v", f, next, err)
	}
	if st.Delivered(1, 0) != 1 {
		t.Fatal("frame not delivered")
	}
}

func TestStationBatchedIngestAcksOncePerChannel(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	var buf []byte
	for seq := uint32(0); seq < 3; seq++ {
		buf = append(buf, encData(t, 1, 0, seq, "x")...)
	}
	buf = append(buf, encData(t, 1, 2, 0, "y")...)
	acks := st.Ingest(buf, 0)
	if len(acks) != 2 {
		t.Fatalf("acks = %d, want one per touched channel", len(acks))
	}
	f0, _, _ := DecodeFrame(acks[0])
	if n, _ := AckValue(f0); f0.VC != 0 || n != 3 {
		t.Fatalf("first ack %+v: cumulative ACK should cover the batch", f0)
	}
}

func TestStationDedupAndOutOfOrder(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	st.Ingest(encData(t, 1, 0, 0, "a"), 0)

	// Duplicate: re-ACKed, not redelivered.
	acks := st.Ingest(encData(t, 1, 0, 0, "a"), 0)
	if len(acks) != 1 {
		t.Fatal("duplicate not re-ACKed")
	}
	if st.Delivered(1, 0) != 1 {
		t.Fatal("duplicate delivered twice")
	}

	// Out-of-order (no base flag): discarded, expectation re-ACKed.
	acks = st.Ingest(encData(t, 1, 0, 5, "future"), 0)
	f, _, _ := DecodeFrame(acks[0])
	if n, _ := AckValue(f); n != 1 {
		t.Fatalf("out-of-order re-ACK = %d, want 1", n)
	}
	rep := st.Report()
	if rep[0].VC[0].Dups != 1 || rep[0].VC[0].OutOfOrd != 1 {
		t.Fatalf("counters %+v", rep[0].VC[0])
	}
}

func TestStationBaseFlagSkipsUnrecoverableGap(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	st.Ingest(encData(t, 1, 3, 0, "a"), 0)
	// Sender's recorder evicted seqs 1-4: the new base arrives flagged.
	raw, err := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: 3, Flags: FlagBase, Seq: 5, Payload: []byte("f")})
	if err != nil {
		t.Fatal(err)
	}
	acks := st.Ingest(raw, 0)
	f, _, _ := DecodeFrame(acks[0])
	if n, _ := AckValue(f); n != 6 {
		t.Fatalf("post-skip ACK = %d, want 6", n)
	}
	rep := st.Report()
	if rep[0].VC[3].Skipped != 4 || rep[0].VC[3].Delivered != 2 {
		t.Fatalf("skip accounting %+v", rep[0].VC[3])
	}
}

func TestStationIgnoresAcksAndReadsBeacons(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	ack, _ := AppendAck(nil, 1, 0, 7)
	if got := st.Ingest(ack, 0); got != nil {
		t.Fatal("station ACKed an ACK")
	}
	b, _ := AppendBeacon(nil, 1, 0, true, 42)
	if got := st.Ingest(b, 0); got != nil {
		t.Fatal("station ACKed a beacon")
	}
	rep := st.Report()
	if len(rep) != 1 || !rep[0].Degraded || rep[0].Backlog != 42 || rep[0].Beacons != 1 {
		t.Fatalf("beacon state %+v", rep)
	}
	// A delivered data frame clears the degraded latch.
	st.Ingest(encData(t, 1, 0, 0, "alive"), 0)
	if st.Report()[0].Degraded {
		t.Fatal("degraded latch not cleared by data")
	}
}

func TestStationRejectAttribution(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	cfg := DefaultStationConfig()
	cfg.Instruments = NewStationInstruments(reg)
	st := NewStation(cfg)
	st.Ingest(encData(t, 9, 0, 0, "establish"), 0)

	// Corrupt a payload bit: CRC fails but the header still names link 9.
	bad := encData(t, 9, 0, 1, "corrupt-me")
	bad[HeaderLen] ^= 0x01
	st.Ingest(bad, 0)
	rep := st.Report()
	if rep[0].Rejected != 1 {
		t.Fatalf("rejection not attributed: %+v", rep[0])
	}
	if cfg.Instruments.Rejected.Value() != 1 {
		t.Fatal("global rejected counter not bumped")
	}

	// Garbage prefix: unattributable, counted globally, ingest stops.
	st.Ingest([]byte("not a frame at all........................."), 0)
	if cfg.Instruments.Rejected.Value() != 2 {
		t.Fatal("garbage not counted")
	}
}

func TestStationKeepPayloadsBound(t *testing.T) {
	cfg := DefaultStationConfig()
	cfg.KeepPayloads = 2
	st := NewStation(cfg)
	for seq := uint32(0); seq < 5; seq++ {
		st.Ingest(encData(t, 1, 0, seq, strings.Repeat("p", int(seq)+1)), 0)
	}
	rep := st.Report()
	if len(rep[0].RecentP0) != 2 {
		t.Fatalf("kept %d payloads, want 2", len(rep[0].RecentP0))
	}
	if rep[0].RecentP0[1] != "ppppp" {
		t.Fatalf("kept wrong tail: %q", rep[0].RecentP0)
	}
}

func TestStationStateJSONDeterministic(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	// Touch links in a scrambled order; serialization must sort them.
	for _, link := range []uint16{7, 2, 9, 1} {
		st.Ingest(encData(t, link, 0, 0, "x"), 0)
	}
	b1, err := st.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := st.StateJSON()
	if string(b1) != string(b2) {
		t.Fatal("StateJSON not stable")
	}
	var parsed struct {
		Links []struct {
			Link uint16 `json:"link"`
		} `json:"links"`
	}
	if err := json.Unmarshal(b1, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Links) != 4 {
		t.Fatalf("links = %d", len(parsed.Links))
	}
	for i := 1; i < len(parsed.Links); i++ {
		if parsed.Links[i-1].Link >= parsed.Links[i].Link {
			t.Fatalf("links unsorted: %+v", parsed.Links)
		}
	}
	if got := st.Links(); len(got) != 4 || got[0] != 1 || got[3] != 9 {
		t.Fatalf("Links() = %v", got)
	}
}

// TestStationRecoveryCounters: delivered payloads carrying the OS-fault
// campaign's telemetry prefixes are tallied per link, so /state exposes
// each spacecraft's watchdog-reset and recorder-recovery history.
func TestStationRecoveryCounters(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	st.Ingest(encData(t, 3, 1, 0, "watchdog_reset count=2 classes=5"), 0)
	st.Ingest(encData(t, 3, 1, 1, "recorder_recovered count=14 classes=5"), 0)
	st.Ingest(encData(t, 3, 1, 2, "watchdog_reset count=1 classes=1"), 0)
	st.Ingest(encData(t, 3, 0, 0, "campaign_complete campaign=oskernel verdict=protected"), 0)
	// A duplicate must not double-count.
	st.Ingest(encData(t, 3, 1, 2, "watchdog_reset count=1 classes=1"), 0)
	// Near-miss payloads (no trailing space / different link) stay out.
	st.Ingest(encData(t, 3, 1, 3, "watchdog_resets=9"), 0)
	st.Ingest(encData(t, 4, 1, 0, "plain telemetry"), 0)

	rep := st.Report()
	if len(rep) != 2 {
		t.Fatalf("links = %d, want 2", len(rep))
	}
	if rep[0].Link != 3 || rep[0].WatchdogResets != 2 || rep[0].RecorderRecoveries != 1 {
		t.Fatalf("link 3 counters = %d resets / %d recoveries, want 2/1",
			rep[0].WatchdogResets, rep[0].RecorderRecoveries)
	}
	if rep[1].WatchdogResets != 0 || rep[1].RecorderRecoveries != 0 {
		t.Fatalf("link 4 inherited recovery counts: %+v", rep[1])
	}

	b, err := st.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Links []struct {
			WatchdogResets     uint64 `json:"watchdog_resets"`
			RecorderRecoveries uint64 `json:"recorder_recoveries"`
		} `json:"links"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Links[0].WatchdogResets != 2 || parsed.Links[0].RecorderRecoveries != 1 {
		t.Fatalf("/state counters = %+v, want 2/1", parsed.Links[0])
	}
}

// TestStationMissionState: delivered "mission_phase" / "adapt_level"
// payloads update the per-link phase and adapt mode, so /state answers
// "where is this spacecraft and how hard is its protection working"
// with the latest word from the flight software.
func TestStationMissionState(t *testing.T) {
	st := NewStation(DefaultStationConfig())
	st.Ingest(encData(t, 5, 0, 0, "mission_phase leo_cruise t=0s"), 0)
	st.Ingest(encData(t, 5, 0, 1, "adapt_level nominal t=0s"), 0)
	st.Ingest(encData(t, 5, 0, 2, "mission_phase saa_crossing t=30m0s"), 0)
	st.Ingest(encData(t, 5, 0, 3, "adapt_level elevated t=31m0s"), 0)
	// Out-of-order (discarded) frames must not advance the state, and
	// near-miss payloads stay out.
	st.Ingest(encData(t, 5, 0, 9, "mission_phase geo_cruise t=99m0s"), 0)
	st.Ingest(encData(t, 5, 0, 4, "mission_phased wrong"), 0)
	st.Ingest(encData(t, 6, 0, 0, "plain telemetry"), 0)

	rep := st.Report()
	if len(rep) != 2 {
		t.Fatalf("links = %d, want 2", len(rep))
	}
	if rep[0].Link != 5 || rep[0].CurrentPhase != "saa_crossing" || rep[0].AdaptMode != "elevated" {
		t.Fatalf("link 5 state = %q/%q, want saa_crossing/elevated",
			rep[0].CurrentPhase, rep[0].AdaptMode)
	}
	if rep[1].CurrentPhase != "" || rep[1].AdaptMode != "" {
		t.Fatalf("link 6 inherited mission state: %+v", rep[1])
	}

	b, err := st.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Links []struct {
			CurrentPhase string `json:"current_phase"`
			AdaptMode    string `json:"adapt_mode"`
		} `json:"links"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Links[0].CurrentPhase != "saa_crossing" || parsed.Links[0].AdaptMode != "elevated" {
		t.Fatalf("/state mission fields = %+v, want saa_crossing/elevated", parsed.Links[0])
	}
}
