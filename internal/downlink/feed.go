package downlink

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Feed is the flight-side TCP client for a ground station: a
// Transmitter whose radio is a real socket. Frames still pass through a
// (clean, generous) Link so the ARQ machinery, the flight-recorder ring
// and beacon mode behave exactly as in simulation, but the down pipe's
// output is written to the connection and ACKs are read back from it.
//
// TCP is reliable and ordered, so the feed reads exactly one ACK,
// synchronously, for every data frame it writes: the pump stays
// deterministic and needs no wall-clock waits. Simulated time is still
// the caller's: every method takes an explicit now.
type Feed struct {
	conn net.Conn
	br   *bufio.Reader
	link *Link
	tx   *Transmitter
	ack  []byte // ACK read buffer; the link copies what it accepts
}

// CheckLinkID rejects a link id that does not fit a frame's 16 bits or
// is 0. DialFeed checks its id with it before narrowing it, and the
// CLIs check their -link-id flag with it before any work: an
// out-of-range id would otherwise wrap onto another spacecraft's link
// (65537 streams as link 1).
func CheckLinkID(link int) error {
	if link < 1 || link > 0xFFFF {
		return fmt.Errorf("downlink: link id %d out of range [1, 65535]", link)
	}
	return nil
}

// DialFeed connects to a ground station and builds the flight pipeline
// for the given link id, which must pass CheckLinkID.
func DialFeed(addr string, link int) (*Feed, error) {
	if err := CheckLinkID(link); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("downlink: dialing ground station: %w", err)
	}
	// The socket provides the loss model (none); the in-sim link only
	// needs to never be the bottleneck.
	lcfg := LinkConfig{RateBps: 1 << 30, AckRateBps: 1 << 30}
	l, err := NewLink(lcfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	tx, err := NewTransmitter(l, DefaultTxConfig(uint16(link)))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Feed{conn: conn, br: bufio.NewReaderSize(conn, 4*MaxFrameLen), link: l, tx: tx, ack: make([]byte, 0, MaxFrameLen)}, nil
}

// Enqueue records a payload on a virtual channel (0 highest priority).
func (f *Feed) Enqueue(vc uint8, payload []byte, now time.Duration) error {
	return f.tx.Enqueue(vc, payload, now)
}

// SetBeacon switches beacon-mode degradation (guard step-down hook).
func (f *Feed) SetBeacon(on bool, now time.Duration, reason string) {
	f.tx.SetBeacon(on, now, reason)
}

// Stats exposes the transmitter's counters.
func (f *Feed) Stats() TxStats { return f.tx.Stats() }

// Tick advances the ARQ machine one step at simulated time now: frames
// the transmitter releases go out over the socket, and each data
// frame's ACK is read back synchronously and fed to the transmitter.
func (f *Feed) Tick(now time.Duration) error {
	if err := f.tx.Tick(now); err != nil {
		return err
	}
	expectAcks := 0
	for _, raw := range f.link.RecvDown(now) {
		fr, _, err := DecodeFrame(raw)
		if err != nil {
			return fmt.Errorf("downlink: feed produced an undecodable frame: %w", err)
		}
		if _, err := f.conn.Write(raw); err != nil {
			return fmt.Errorf("downlink: writing to ground station: %w", err)
		}
		if fr.Type == FrameData {
			expectAcks++ // beacons are unacknowledged
		}
	}
	for i := 0; i < expectAcks; i++ {
		var err error
		if f.ack, err = readFrameInto(f.br, f.ack); err != nil {
			return fmt.Errorf("downlink: reading ACK: %w", err)
		}
		f.link.SendUp(f.ack, now)
	}
	return nil
}

// Drain keeps ticking past the mission until every queued frame is
// acknowledged, advancing simulated time by step up to the deadline.
// It returns the time of the last tick.
func (f *Feed) Drain(from, deadline, step time.Duration) (time.Duration, error) {
	now := from
	for ; now <= deadline; now += step {
		if err := f.Tick(now); err != nil {
			return now, err
		}
		if f.tx.Done() {
			return now, nil
		}
	}
	if !f.tx.Done() {
		return now, fmt.Errorf("downlink: %d frames still unacknowledged at drain deadline", f.tx.Pending())
	}
	return now, nil
}

// Close shuts the socket. Call Drain first if losing queued frames
// matters.
func (f *Feed) Close() error { return f.conn.Close() }
