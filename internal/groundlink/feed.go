package groundlink

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"radshield/internal/downlink"
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
	link *downlink.Link
	tx   *downlink.Transmitter
	ack  []byte // ACK read buffer; the link copies what it accepts
}

// DialFeed connects to a ground station and builds the flight pipeline
// for the given link id, which must pass downlink.CheckLinkID.
func DialFeed(addr string, link int) (*Feed, error) {
	if err := downlink.CheckLinkID(link); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("groundlink: dialing ground station: %w", err)
	}
	// The socket provides the loss model (none); the in-sim link only
	// needs to never be the bottleneck.
	lcfg := downlink.LinkConfig{RateBps: 1 << 30, AckRateBps: 1 << 30}
	l, err := downlink.NewLink(lcfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	tx, err := downlink.NewTransmitter(l, downlink.DefaultTxConfig(uint16(link)))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Feed{conn: conn, br: bufio.NewReaderSize(conn, 4*downlink.MaxFrameLen), link: l, tx: tx, ack: make([]byte, 0, downlink.MaxFrameLen)}, nil
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
func (f *Feed) Stats() downlink.TxStats { return f.tx.Stats() }

// Tick advances the ARQ machine one step at simulated time now: frames
// the transmitter releases go out over the socket, and each data
// frame's ACK is read back synchronously and fed to the transmitter.
func (f *Feed) Tick(now time.Duration) error {
	if err := f.tx.Tick(now); err != nil {
		return err
	}
	expectAcks := 0
	for _, raw := range f.link.RecvDown(now) {
		fr, _, err := downlink.DecodeFrame(raw)
		if err != nil {
			return fmt.Errorf("groundlink: feed produced an undecodable frame: %w", err)
		}
		if _, err := f.conn.Write(raw); err != nil {
			return fmt.Errorf("groundlink: writing to ground station: %w", err)
		}
		if fr.Type == downlink.FrameData {
			expectAcks++ // beacons are unacknowledged
		}
	}
	for i := 0; i < expectAcks; i++ {
		var err error
		if f.ack, err = downlink.ReadFrame(f.br, f.ack); err != nil {
			return fmt.Errorf("groundlink: reading ACK: %w", err)
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
		return now, fmt.Errorf("groundlink: %d frames still unacknowledged at drain deadline", f.tx.Pending())
	}
	return now, nil
}

// Close shuts the socket. Call Drain first if losing queued frames
// matters.
func (f *Feed) Close() error { return f.conn.Close() }
