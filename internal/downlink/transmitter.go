package downlink

import (
	"fmt"
	"time"
)

// Policy selects which virtual channel the transmitter serves next
// when several have frames ready. The campaign sweeps all three.
type Policy int

const (
	// PolicyPriority always drains the lowest-numbered (highest
	// priority) channel first — the flight default.
	PolicyPriority Policy = iota
	// PolicyRoundRobin rotates across non-empty channels, one frame
	// each.
	PolicyRoundRobin
	// PolicyFIFO ignores priority and sends in global enqueue order.
	PolicyFIFO

	policyCount
)

// String names the policy for tables.
func (p Policy) String() string {
	switch p {
	case PolicyPriority:
		return "priority"
	case PolicyRoundRobin:
		return "round_robin"
	case PolicyFIFO:
		return "fifo"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// TxConfig tunes the transmitter.
type TxConfig struct {
	// Link identifies this spacecraft in every frame header.
	Link uint16
	// Window is the go-back-N window per virtual channel: how many
	// frames may be outstanding (sent, unacknowledged) at once.
	Window int
	// RTO is the initial retransmission timeout. On each consecutive
	// timeout of the same window it doubles, deterministically, up to
	// RTOMax.
	RTO    time.Duration
	RTOMax time.Duration
	// Policy picks the channel-service order.
	Policy Policy
	// RingCap bounds the flight recorder (records).
	RingCap int
	// BeaconEvery is the heartbeat cadence in beacon mode.
	BeaconEvery time.Duration
	// Instruments, when non-nil, receives downlink_* metrics.
	Instruments *Instruments
}

// DefaultTxConfig returns the flight operating point: an 8-frame
// window, 1 s initial RTO backing off to 30 s, strict priority, a
// 4096-record recorder, 10 s beacons.
func DefaultTxConfig(link uint16) TxConfig {
	return TxConfig{
		Link:        link,
		Window:      8,
		RTO:         time.Second,
		RTOMax:      30 * time.Second,
		Policy:      PolicyPriority,
		RingCap:     4096,
		BeaconEvery: 10 * time.Second,
	}
}

// vcState is the volatile per-channel ARQ state. A power cycle wipes
// it; the flight recorder (NVRAM) rebuilds the windows.
type vcState struct {
	sent     int           // frames outstanding from the window base
	attempts int           // consecutive timeouts of the current window
	deadline time.Duration // retransmit deadline; valid when sent > 0
	maxSent  uint32        // one past the highest seq ever transmitted
	everSent bool
}

// TxStats are the transmitter's cumulative tallies.
type TxStats struct {
	Sent        uint64 // data frames handed to the link
	Retransmits uint64 // subset that were re-sends
	Acked       uint64 // records released by ACKs
	Beacons     uint64 // beacon frames sent
	Timeouts    uint64 // go-back-N window resets
	DupAcks     uint64 // ACKs that released nothing
}

// Transmitter is the flight-side sender: a priority-queue scheduler
// over the flight recorder with per-channel go-back-N ARQ, driven
// entirely by explicit simulated timestamps. It is not safe for
// concurrent use.
type Transmitter struct {
	cfg  TxConfig
	rec  *Recorder
	link *Link
	vc   [NumVC]vcState

	beacon     bool
	nextBeacon time.Duration
	beaconSeq  uint32
	rr         int // round-robin position, persists across ticks
	stats      TxStats
	ins        *Instruments
	lastTick   time.Duration
	frame      []byte // MaxFrameLen encode scratch; the link copies what it accepts
}

// NewTransmitter validates cfg and binds the transmitter to its link.
func NewTransmitter(link *Link, cfg TxConfig) (*Transmitter, error) {
	if link == nil {
		return nil, fmt.Errorf("downlink: nil link")
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("downlink: window %d must be ≥ 1", cfg.Window)
	}
	if cfg.RTO <= 0 || cfg.RTOMax < cfg.RTO {
		return nil, fmt.Errorf("downlink: RTO %v must be > 0 and ≤ RTOMax %v", cfg.RTO, cfg.RTOMax)
	}
	if cfg.Policy < 0 || cfg.Policy >= policyCount {
		return nil, fmt.Errorf("downlink: unknown policy %d", cfg.Policy)
	}
	if cfg.BeaconEvery <= 0 {
		return nil, fmt.Errorf("downlink: BeaconEvery %v must be > 0", cfg.BeaconEvery)
	}
	rec, err := NewRecorder(cfg.RingCap)
	if err != nil {
		return nil, err
	}
	rec.setInstruments(cfg.Instruments)
	link.SetInstruments(cfg.Instruments)
	return &Transmitter{cfg: cfg, rec: rec, link: link, ins: cfg.Instruments, frame: make([]byte, 0, MaxFrameLen)}, nil
}

// Enqueue stores payload on vc for transmission. Eviction of an
// already-sent frame shrinks that channel's outstanding window so the
// ARQ base stays aligned with the recorder.
func (t *Transmitter) Enqueue(vc uint8, payload []byte, now time.Duration) error {
	_, evicted, err := t.rec.Enqueue(vc, payload, now)
	if err != nil {
		return err
	}
	if evicted != nil && t.vc[evicted.VC].sent > 0 {
		t.vc[evicted.VC].sent--
	}
	return nil
}

// SetBeacon switches degraded beacon mode. The guard supervisor's
// step-down drives this (see guard.Supervisor.OnModeChange): in beacon
// mode only channel 0 flows, plus a periodic heartbeat, so a sick
// spacecraft still gets its highest-priority events down.
func (t *Transmitter) SetBeacon(on bool, now time.Duration, reason string) {
	if on == t.beacon {
		return
	}
	t.beacon = on
	if on {
		t.nextBeacon = now
	}
	t.ins.beaconModeChange(now, on, reason)
}

// Beacon reports whether beacon mode is engaged.
func (t *Transmitter) Beacon() bool { return t.beacon }

// PowerCycle models a board reboot at instant now: all volatile ARQ
// state (windows, timers, beacon engagement) is lost; the flight
// recorder — NVRAM — survives, so unacknowledged frames retransmit
// from scratch after the restart.
func (t *Transmitter) PowerCycle(now time.Duration) {
	for i := range t.vc {
		t.vc[i].sent = 0
		t.vc[i].attempts = 0
		t.vc[i].deadline = 0
	}
	t.rr = 0
	if t.beacon {
		t.beacon = false
		t.ins.beaconModeChange(now, false, "power_cycle")
	}
}

// Pending returns the flight-recorder backlog (unacknowledged
// records).
func (t *Transmitter) Pending() int { return t.rec.Len() }

// Evicted returns how many records the recorder overwrote.
func (t *Transmitter) Evicted() uint64 { return t.rec.Evicted() }

// Done reports whether every enqueued record has been acknowledged.
func (t *Transmitter) Done() bool { return t.rec.Len() == 0 }

// Stats returns the cumulative tallies.
func (t *Transmitter) Stats() TxStats { return t.stats }

// rto returns the deterministic backoff for the given timeout count:
// RTO << attempts, capped at RTOMax.
func (t *Transmitter) rto(attempts int) time.Duration {
	d := t.cfg.RTO
	for i := 0; i < attempts && d < t.cfg.RTOMax; i++ {
		d *= 2
	}
	if d > t.cfg.RTOMax {
		d = t.cfg.RTOMax
	}
	return d
}

// Tick advances the transmitter to instant now: ACKs are absorbed,
// expired windows reset (go-back-N), and as much of the backlog as
// policy and bandwidth allow is (re)transmitted. Ticks must be
// monotone.
func (t *Transmitter) Tick(now time.Duration) error {
	if now < t.lastTick {
		return fmt.Errorf("downlink: Tick(%v) before %v — simulated time may not move backwards", now, t.lastTick)
	}
	t.lastTick = now

	// 1. Absorb the up-pipe: cumulative ACKs advance the windows.
	for _, raw := range t.link.RecvUp(now) {
		f, _, err := DecodeFrame(raw)
		if err != nil {
			continue // a mangled ACK is just a lost ACK; ARQ recovers
		}
		if f.Type != FrameAck {
			continue
		}
		next, err := AckValue(f)
		if err != nil {
			continue
		}
		t.handleAck(f.VC, next, now)
	}

	// 2. Expired windows: go back N — every outstanding frame on the
	// channel re-enters the unsent set and the backoff doubles.
	for vc := 0; vc < NumVC; vc++ {
		st := &t.vc[vc]
		if st.sent > 0 && now >= st.deadline {
			st.sent = 0
			st.attempts++
			st.deadline = now + t.rto(st.attempts)
			t.stats.Timeouts++
		}
	}

	// 3. Beacon heartbeat.
	if t.beacon && now >= t.nextBeacon {
		if raw, err := AppendBeacon(t.frame[:0], t.cfg.Link, t.beaconSeq, true, uint32(t.rec.Len())); err == nil {
			if t.link.CanSendDown(len(raw), now) && t.link.SendDown(raw, now) {
				t.beaconSeq++
				t.stats.Beacons++
				t.ins.beaconSent()
				t.nextBeacon = now + t.cfg.BeaconEvery
			}
		}
	}

	// 4. Transmit new (and go-back-N re-queued) frames under the
	// bandwidth budget. The round-robin position persists across ticks:
	// on a starved link that affords one frame per tick, resetting it
	// would collapse round robin into strict priority.
	for {
		vc, ok := t.pick(t.rr)
		if !ok {
			return nil
		}
		st := &t.vc[vc]
		recs := t.rec.Pending(uint8(vc))
		r := recs[st.sent]
		// The window-base frame carries FlagBase so the station can
		// distinguish "frames still in flight below this sequence" from
		// "the recorder evicted them" and skip an unrecoverable gap.
		var flags uint8
		if st.sent == 0 {
			flags = FlagBase
		}
		raw, err := AppendFrame(t.frame[:0], Frame{Type: FrameData, Link: t.cfg.Link, VC: uint8(vc), Flags: flags, Seq: r.Seq, Payload: r.Payload})
		if err != nil {
			return err // recorder-validated payload: should be impossible
		}
		if !t.link.CanSendDown(len(raw), now) {
			return nil // starved; resume next tick
		}
		t.link.SendDown(raw, now)
		if t.cfg.Policy == PolicyRoundRobin {
			// Rotate only after a frame actually went out — advancing on
			// a starved attempt would hand the next affordable slot to an
			// arbitrary channel.
			t.rr = (vc + 1) % NumVC
		}
		retransmit := st.everSent && r.Seq < st.maxSent
		if !retransmit {
			st.maxSent = r.Seq + 1
			st.everSent = true
		}
		if st.sent == 0 {
			st.deadline = now + t.rto(st.attempts)
		}
		st.sent++
		t.stats.Sent++
		if retransmit {
			t.stats.Retransmits++
		}
		t.ins.frameSent(len(raw), retransmit)
	}
}

// handleAck advances vc's window to the cumulative acknowledgement.
func (t *Transmitter) handleAck(vc uint8, nextExpected uint32, now time.Duration) {
	if vc >= NumVC {
		return
	}
	released := t.rec.Ack(vc, nextExpected)
	st := &t.vc[vc]
	if released == 0 {
		t.stats.DupAcks++
		return
	}
	st.sent -= released
	if st.sent < 0 {
		st.sent = 0
	}
	// Forward progress resets the backoff and re-arms the timer for
	// whatever is still outstanding.
	st.attempts = 0
	if st.sent > 0 {
		st.deadline = now + t.rto(0)
	}
	t.stats.Acked += uint64(released)
	t.ins.framesAcked(released)
}

// pick returns the next channel to serve under the configured policy,
// or ok=false when nothing is eligible. rrStart seeds the round-robin
// scan so consecutive picks within one tick rotate.
func (t *Transmitter) pick(rrStart int) (int, bool) {
	eligible := func(vc int) bool {
		if t.beacon && vc != 0 {
			return false
		}
		st := &t.vc[vc]
		return st.sent < t.cfg.Window && st.sent < len(t.rec.Pending(uint8(vc)))
	}
	switch t.cfg.Policy {
	case PolicyRoundRobin:
		for i := 0; i < NumVC; i++ {
			vc := (rrStart + i) % NumVC
			if eligible(vc) {
				return vc, true
			}
		}
	case PolicyFIFO:
		best, bestAt := -1, time.Duration(0)
		for vc := 0; vc < NumVC; vc++ {
			if !eligible(vc) {
				continue
			}
			at := t.rec.Pending(uint8(vc))[t.vc[vc].sent].Enqueued
			if best < 0 || at < bestAt {
				best, bestAt = vc, at
			}
		}
		if best >= 0 {
			return best, true
		}
	default: // PolicyPriority
		for vc := 0; vc < NumVC; vc++ {
			if eligible(vc) {
				return vc, true
			}
		}
	}
	return 0, false
}
