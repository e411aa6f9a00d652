package downlink

import (
	"fmt"
	"testing"
	"time"

	"radshield/internal/telemetry"
)

// newTestPair wires a transmitter and a station over one lossy link.
func newTestPair(t *testing.T, lcfg LinkConfig, txcfg func(*TxConfig)) (*Transmitter, *Station, *Link) {
	t.Helper()
	link, err := NewLink(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTxConfig(1)
	if txcfg != nil {
		txcfg(&cfg)
	}
	tx, err := NewTransmitter(link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tx, NewStation(DefaultStationConfig()), link
}

// pump advances one simulated instant: the transmitter ticks, frames
// arriving at the ground are ingested, and the station's ACKs head back
// up the link.
func pump(t *testing.T, tx *Transmitter, st *Station, link *Link, now time.Duration) {
	t.Helper()
	if err := tx.Tick(now); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, raw := range link.RecvDown(now) {
		buf = append(buf, raw...)
	}
	if len(buf) == 0 {
		return
	}
	for _, ack := range st.Ingest(buf, now) {
		link.SendUp(ack, now)
	}
}

// drainUntil pumps in fixed steps until the transmitter's backlog is
// fully acknowledged, failing the test at the deadline.
func drainUntil(t *testing.T, tx *Transmitter, st *Station, link *Link, from, deadline, step time.Duration) time.Duration {
	t.Helper()
	for now := from; now <= deadline; now += step {
		pump(t, tx, st, link, now)
		if tx.Done() {
			return now
		}
	}
	t.Fatalf("backlog not drained by %v: pending=%d stats=%+v link=%+v",
		deadline, tx.Pending(), tx.Stats(), link.Stats())
	return 0
}

func TestARQCleanLinkDeliversInOrder(t *testing.T) {
	// Generous rates in both directions: the default AckRateBps starves
	// the up pipe early on (the bucket starts empty), which loses ACKs
	// and provokes retransmits this test asserts never happen.
	tx, st, link := newTestPair(t, LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 50 * time.Millisecond}, nil)
	var want []string
	for i := 0; i < 20; i++ {
		vc := uint8(i % NumVC)
		p := fmt.Sprintf("vc%d-msg%d", vc, i)
		if vc == 0 {
			want = append(want, p)
		}
		if err := tx.Enqueue(vc, []byte(p), 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	st.cfg.Sink = func(link uint16, vc uint8, seq uint32, payload []byte) {
		if vc == 0 {
			got = append(got, string(payload))
		}
	}
	drainUntil(t, tx, st, link, 10*time.Millisecond, 30*time.Second, 10*time.Millisecond)
	for vc := uint8(0); vc < NumVC; vc++ {
		if n := st.Delivered(1, vc); n != 5 {
			t.Fatalf("vc%d delivered %d, want 5", vc, n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d vc0 payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vc0 payload %d = %q, want %q (order broken)", i, got[i], want[i])
		}
	}
	if s := tx.Stats(); s.Retransmits != 0 || s.Timeouts != 0 {
		t.Fatalf("clean link retransmitted: %+v", s)
	}
}

// TestARQDuplicateAck replays a stale cumulative ACK and checks the
// window neither regresses nor double-releases records.
func TestARQDuplicateAck(t *testing.T) {
	tx, st, link := newTestPair(t, LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond}, nil)
	for i := 0; i < 4; i++ {
		tx.Enqueue(0, []byte{byte(i)}, 0)
	}
	end := drainUntil(t, tx, st, link, 10*time.Millisecond, 10*time.Second, 10*time.Millisecond)
	acked := tx.Stats().Acked

	// Replay an old ACK (next-expected 2 when all 4 are released).
	stale, err := AppendAck(nil, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	link.SendUp(stale, end+time.Second)
	if err := tx.Tick(end + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s := tx.Stats()
	if s.DupAcks == 0 {
		t.Fatal("stale ACK not counted as duplicate")
	}
	if s.Acked != acked {
		t.Fatalf("stale ACK released records: %d -> %d", acked, s.Acked)
	}
	// The channel still works afterwards.
	tx.Enqueue(0, []byte("after"), end+2*time.Second)
	drainUntil(t, tx, st, link, end+2*time.Second+10*time.Millisecond, end+20*time.Second, 10*time.Millisecond)
	if st.Delivered(1, 0) != 5 {
		t.Fatalf("post-dup delivery broken: %d", st.Delivered(1, 0))
	}
}

// TestARQRetransmitOfRetransmit forces two consecutive losses of the
// same frame: the second retransmission must go out with a doubled
// backoff and still deliver exactly once.
func TestARQRetransmitOfRetransmit(t *testing.T) {
	tx, st, link := newTestPair(t,
		LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond, Seed: 5},
		func(c *TxConfig) { c.RTO = time.Second; c.RTOMax = 30 * time.Second })
	// Every frame sent in the first 3.5 s is dropped: the original send
	// (~t=10ms) and the first retransmission (~t=1s) both die; the
	// second retransmission (~t=3s, after the doubled 2 s backoff) dies
	// too; the third (~t=7s) finally crosses.
	if err := link.ScheduleLinkFault(LinkFault{Start: 0, Duration: 3500 * time.Millisecond, Drop: 1}); err != nil {
		t.Fatal(err)
	}
	tx.Enqueue(0, []byte("persistent"), 0)
	drainUntil(t, tx, st, link, 10*time.Millisecond, time.Minute, 10*time.Millisecond)

	s := tx.Stats()
	if s.Timeouts < 2 {
		t.Fatalf("Timeouts = %d, want ≥ 2 (retransmit of a retransmit)", s.Timeouts)
	}
	if s.Retransmits < 2 {
		t.Fatalf("Retransmits = %d, want ≥ 2", s.Retransmits)
	}
	if st.Delivered(1, 0) != 1 {
		t.Fatalf("delivered %d copies, want exactly 1", st.Delivered(1, 0))
	}
	// Deterministic doubling: 1s, 2s, 4s, ... capped at RTOMax.
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		if got := tx.rto(i); got != want {
			t.Fatalf("rto(%d) = %v, want %v", i, got, want)
		}
	}
	if got := tx.rto(40); got != 30*time.Second {
		t.Fatalf("rto cap = %v, want 30s", got)
	}
}

// TestARQCorruptUntilBlackoutEnds is the pathological pass: every
// attempt is bit-corrupted (CRC rejects it on the ground), then the
// link goes fully black, and only after the blackout clears does a
// clean attempt land. The frame must survive all of it.
func TestARQCorruptUntilBlackoutEnds(t *testing.T) {
	tx, _, link := newTestPair(t,
		LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond, Seed: 11},
		func(c *TxConfig) { c.RTO = 500 * time.Millisecond; c.RTOMax = 2 * time.Second })
	reg := telemetry.NewRegistry(0)
	scfg := DefaultStationConfig()
	scfg.Instruments = NewStationInstruments(reg)
	st := NewStation(scfg)
	rejectedTotal := scfg.Instruments.Rejected
	// Corrupt every frame until the blackout opens; the blackout then
	// swallows everything until t=8s.
	if err := link.ScheduleLinkFault(LinkFault{Start: 0, Duration: 4 * time.Second, Corrupt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := link.ScheduleBlackout(Blackout{Start: 4 * time.Second, Duration: 4 * time.Second}); err != nil {
		t.Fatal(err)
	}
	tx.Enqueue(0, []byte("survivor"), 0)

	var delivered []string
	st.cfg.Sink = func(_ uint16, _ uint8, _ uint32, p []byte) { delivered = append(delivered, string(p)) }
	drainUntil(t, tx, st, link, 10*time.Millisecond, time.Minute, 10*time.Millisecond)

	if len(delivered) != 1 || delivered[0] != "survivor" {
		t.Fatalf("delivered %q, want exactly one intact copy", delivered)
	}
	ls := link.Stats()
	if ls.Corrupted == 0 {
		t.Fatal("corrupt window never fired")
	}
	if ls.BlackoutLost == 0 {
		t.Fatal("blackout never swallowed an attempt")
	}
	if tx.Stats().Retransmits == 0 {
		t.Fatal("frame claimed to deliver without retransmission")
	}
	// Corrupted copies reached the station and were rejected by CRC.
	// (They stay unattributed in the per-link report — no valid frame
	// had established the link yet — so check the global counter.)
	if rejectedTotal.Value() == 0 {
		t.Fatal("corrupted frames were never rejected at the station")
	}
}

// TestARQRingOverwriteOfUnackedFrames fills a tiny recorder during a
// blackout so bulk frames — already transmitted but never acknowledged
// — get evicted, then verifies (a) priority 0 survives untouched,
// (b) the transmitter's window realigns, and (c) the station skips the
// unrecoverable gap via the window-base flag instead of wedging.
func TestARQRingOverwriteOfUnackedFrames(t *testing.T) {
	tx, st, link := newTestPair(t,
		LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond},
		func(c *TxConfig) { c.RingCap = 4; c.RTO = 500 * time.Millisecond })
	// No contact for the first 10 s: frames transmit into the void.
	if err := link.ScheduleBlackout(Blackout{Start: 0, Duration: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	tx.Enqueue(0, []byte("critical"), 0)
	tx.Enqueue(3, []byte("bulk0"), 0)
	tx.Enqueue(3, []byte("bulk1"), 0)
	tx.Enqueue(3, []byte("bulk2"), 0)
	// Let the transmitter send the backlog into the blackout so the
	// bulk channel has sent-but-unacked frames.
	pump(t, tx, st, link, 100*time.Millisecond)
	if tx.Stats().Sent == 0 {
		t.Fatal("nothing transmitted before the overwrite")
	}
	// The ring is at capacity 4: two more bulk enqueues overwrite the
	// two oldest unacked bulk frames.
	tx.Enqueue(3, []byte("bulk3"), 200*time.Millisecond)
	tx.Enqueue(3, []byte("bulk4"), 200*time.Millisecond)
	if tx.Evicted() != 2 {
		t.Fatalf("Evicted = %d, want 2", tx.Evicted())
	}
	if len(tx.rec.Pending(0)) != 1 {
		t.Fatal("priority-0 record was evicted")
	}

	drainUntil(t, tx, st, link, time.Second, 2*time.Minute, 50*time.Millisecond)

	if st.Delivered(1, 0) != 1 {
		t.Fatalf("vc0 delivered %d, want 1", st.Delivered(1, 0))
	}
	// bulk0 and bulk1 are gone forever; bulk2..4 must arrive, and the
	// station must record the two-frame skip rather than lose it
	// silently.
	rep := st.Report()
	if len(rep) != 1 {
		t.Fatalf("links = %d", len(rep))
	}
	vc3 := rep[0].VC[3]
	if vc3.Delivered != 3 {
		t.Fatalf("vc3 delivered %d, want 3 (bulk2..bulk4)", vc3.Delivered)
	}
	if vc3.Skipped != 2 {
		t.Fatalf("vc3 skipped %d, want 2 (the evicted frames)", vc3.Skipped)
	}
}

// TestARQPowerCycleMidTransfer reboots the transmitter with half the
// backlog acknowledged: volatile window state dies, the NVRAM recorder
// survives, and everything still unacked is retransmitted.
func TestARQPowerCycleMidTransfer(t *testing.T) {
	tx, st, link := newTestPair(t,
		LinkConfig{RateBps: 64, AckRateBps: 64, Latency: 100 * time.Millisecond}, nil)
	for i := 0; i < 10; i++ {
		tx.Enqueue(0, []byte(fmt.Sprintf("rec%02d", i)), 0)
	}
	// Run until part of the backlog — not all of it — is acknowledged.
	var now time.Duration
	for now = 50 * time.Millisecond; now < 30*time.Second; now += 50 * time.Millisecond {
		pump(t, tx, st, link, now)
		if tx.Stats().Acked >= 3 {
			break
		}
	}
	if tx.Done() || tx.Pending() == 10 {
		t.Fatalf("want a half-drained backlog, pending=%d", tx.Pending())
	}
	pendingBefore := tx.Pending()

	tx.PowerCycle(now)
	if tx.Pending() != pendingBefore {
		t.Fatalf("reboot lost recorder contents: %d -> %d", pendingBefore, tx.Pending())
	}

	drainUntil(t, tx, st, link, now+50*time.Millisecond, now+2*time.Minute, 50*time.Millisecond)
	if st.Delivered(1, 0) != 10 {
		t.Fatalf("delivered %d, want all 10", st.Delivered(1, 0))
	}
}

// TestARQBeaconMode checks degraded mode: only channel 0 flows, the
// heartbeat carries the backlog, and leaving beacon mode resumes bulk.
func TestARQBeaconMode(t *testing.T) {
	tx, st, link := newTestPair(t,
		LinkConfig{RateBps: 1 << 16, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond},
		func(c *TxConfig) { c.BeaconEvery = time.Second })
	tx.Enqueue(0, []byte("event"), 0)
	tx.Enqueue(3, []byte("bulk"), 0)

	tx.SetBeacon(true, 0, "guard_stepdown")
	if !tx.Beacon() {
		t.Fatal("beacon mode not engaged")
	}
	var now time.Duration
	for now = 10 * time.Millisecond; now < 5*time.Second; now += 10 * time.Millisecond {
		pump(t, tx, st, link, now)
	}
	if st.Delivered(1, 0) != 1 {
		t.Fatalf("vc0 delivered %d in beacon mode, want 1", st.Delivered(1, 0))
	}
	if st.Delivered(1, 3) != 0 {
		t.Fatal("bulk flowed during beacon mode")
	}
	rep := st.Report()
	if rep[0].Beacons == 0 {
		t.Fatal("no heartbeat reached the ground")
	}
	if tx.Stats().Beacons == 0 {
		t.Fatal("transmitter sent no beacons")
	}

	tx.SetBeacon(false, now, "recovered")
	drainUntil(t, tx, st, link, now+10*time.Millisecond, now+30*time.Second, 10*time.Millisecond)
	if st.Delivered(1, 3) != 1 {
		t.Fatal("bulk did not resume after beacon mode")
	}
}

func TestTransmitterMonotoneTicks(t *testing.T) {
	tx, _, _ := newTestPair(t, DefaultLinkConfig(), nil)
	if err := tx.Tick(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Tick(500 * time.Millisecond); err == nil {
		t.Fatal("backwards tick accepted")
	}
}

func TestTransmitterConfigValidation(t *testing.T) {
	link, _ := NewLink(DefaultLinkConfig())
	bad := []func(*TxConfig){
		func(c *TxConfig) { c.Window = 0 },
		func(c *TxConfig) { c.RTO = 0 },
		func(c *TxConfig) { c.RTOMax = c.RTO / 2 },
		func(c *TxConfig) { c.Policy = policyCount },
		func(c *TxConfig) { c.RingCap = 0 },
		func(c *TxConfig) { c.BeaconEvery = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultTxConfig(1)
		mut(&cfg)
		if _, err := NewTransmitter(link, cfg); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewTransmitter(nil, DefaultTxConfig(1)); err == nil {
		t.Fatal("nil link accepted")
	}
}

// TestPolicies drives each service policy over a mixed backlog on a
// starved link and checks the characteristic order.
func TestPolicies(t *testing.T) {
	type arrival struct {
		vc  uint8
		seq uint32
	}
	run := func(p Policy) []arrival {
		tx, st, link := newTestPair(t,
			// ~1 small frame per 100 ms: policy choice is visible.
			LinkConfig{RateBps: 300, AckRateBps: 1 << 16, Latency: 10 * time.Millisecond},
			func(c *TxConfig) { c.Policy = p })
		var got []arrival
		st.cfg.Sink = func(_ uint16, vc uint8, seq uint32, _ []byte) {
			got = append(got, arrival{vc, seq})
		}
		// Enqueue bulk first so FIFO and priority disagree.
		tx.Enqueue(3, []byte("b0"), 0)
		tx.Enqueue(3, []byte("b1"), time.Millisecond)
		tx.Enqueue(0, []byte("p0"), 2*time.Millisecond)
		tx.Enqueue(0, []byte("p1"), 3*time.Millisecond)
		drainUntil(t, tx, st, link, 10*time.Millisecond, 2*time.Minute, 10*time.Millisecond)
		return got
	}

	if got := run(PolicyPriority); got[0] != (arrival{0, 0}) || got[1] != (arrival{0, 1}) {
		t.Fatalf("priority order %+v: vc0 must go first", got)
	}
	if got := run(PolicyFIFO); got[0] != (arrival{3, 0}) || got[1] != (arrival{3, 1}) {
		t.Fatalf("fifo order %+v: oldest enqueue must go first", got)
	}
	got := run(PolicyRoundRobin)
	if got[0].vc == got[1].vc {
		t.Fatalf("round robin order %+v: first two arrivals on one channel", got)
	}

	names := map[Policy]string{PolicyPriority: "priority", PolicyRoundRobin: "round_robin", PolicyFIFO: "fifo"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("policy %d name %q, want %q", p, p.String(), want)
		}
	}
	if Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name changed")
	}
}
