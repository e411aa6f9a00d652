package downlink

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sink receives every newly delivered (in-order, deduplicated) payload.
// It runs under the station lock; keep it fast. The payload aliases the
// bytes being ingested: a sink that keeps it must copy it.
type Sink func(link uint16, vc uint8, seq uint32, payload []byte)

// StationConfig tunes the ground station.
type StationConfig struct {
	// KeepPayloads bounds how many recent channel-0 payloads are kept
	// per link for the aggregated mission state (0 = keep none). The
	// newest overwrites the oldest's buffer once the bound is reached.
	KeepPayloads int
	// Sink, when non-nil, observes every delivery.
	Sink Sink
	// Instruments, when non-nil, receives groundstation_* metrics.
	Instruments *StationInstruments
}

// DefaultStationConfig keeps the last 64 priority-0 payloads per link.
func DefaultStationConfig() StationConfig {
	return StationConfig{KeepPayloads: 64}
}

// vcRecv is one link × channel's receive state.
type vcRecv struct {
	Expected  uint32 `json:"next_expected"`
	Delivered uint64 `json:"delivered"`
	Dups      uint64 `json:"duplicates"`
	OutOfOrd  uint64 `json:"out_of_order"`
	Skipped   uint64 `json:"skipped"`
}

// linkState aggregates one spacecraft's downlink.
type linkState struct {
	vc       [NumVC]vcRecv
	rejected uint64
	beacons  uint64
	degraded bool
	backlog  uint32 // last beacon-reported flight-recorder depth
	lastSeen time.Duration
	// Recent channel-0 payloads: a ring of at most KeepPayloads
	// buffers, the oldest at p0[p0Next] once it is full.
	p0     [][]byte
	p0Next int
	// needAck marks the channels already queued for an ACK by the
	// AppendAcks call in progress.
	needAck [NumVC]bool
	// Recovery accounting: deliveries whose payloads announce a
	// watchdog reset or a recovered recorder page (the oskernel
	// campaign's telemetry prefixes).
	wdResets      uint64
	recRecoveries uint64
	// Mission-state accounting: the last announced mission phase and
	// adaptive protection level (the mission/adapt telemetry prefixes).
	phase     string
	adaptMode string
}

// LinkReport is one link's row in the aggregated mission state.
type LinkReport struct {
	Link     uint16        `json:"link"`
	VC       [NumVC]vcRecv `json:"vc"`
	Rejected uint64        `json:"rejected"`
	Beacons  uint64        `json:"beacons"`
	Degraded bool          `json:"degraded"`
	Backlog  uint32        `json:"backlog"`
	LastSeen time.Duration `json:"last_seen_ns"`
	// WatchdogResets and RecorderRecoveries count delivered payloads
	// carrying the "watchdog_reset " / "recorder_recovered " prefixes
	// the OS-fault campaign emits, so operators can read a link's
	// recovery history straight off /state.
	WatchdogResets     uint64 `json:"watchdog_resets"`
	RecorderRecoveries uint64 `json:"recorder_recoveries"`
	// CurrentPhase and AdaptMode track the last delivered
	// "mission_phase " / "adapt_level " payloads, so operators can read
	// where each spacecraft is in its mission — and how hard its
	// protection stack is working — straight off /state.
	CurrentPhase string   `json:"current_phase,omitempty"`
	AdaptMode    string   `json:"adapt_mode,omitempty"`
	RecentP0     []string `json:"recent_p0,omitempty"`
}

// Station is the ground side: it ingests raw frame bytes from many
// spacecraft links, validates, deduplicates and reorders them into
// per-channel in-order streams, and answers with cumulative ACKs.
// Station is safe for concurrent use — each TCP connection feeds it
// from its own goroutine.
type Station struct {
	cfg   StationConfig
	mu    sync.Mutex
	links map[uint16]*linkState
	ins   *StationInstruments
	acks  []ackKey // AppendAcks scratch, in first-touched order
}

// ackKey names one link × channel that an ingested batch touched.
type ackKey struct {
	link uint16
	vc   uint8
}

// NewStation builds an empty station.
func NewStation(cfg StationConfig) *Station {
	if cfg.KeepPayloads < 0 {
		cfg.KeepPayloads = 0
	}
	return &Station{cfg: cfg, links: make(map[uint16]*linkState), ins: cfg.Instruments}
}

// Ingest is AppendAcks into fresh storage, returning the ACK frames
// one per slice (nil when there are none).
func (s *Station) Ingest(raw []byte, now time.Duration) [][]byte {
	b := s.AppendAcks(nil, raw, now)
	if len(b) == 0 {
		return nil
	}
	acks := make([][]byte, 0, len(b)/AckFrameLen)
	for ; len(b) > 0; b = b[AckFrameLen:] {
		acks = append(acks, b[:AckFrameLen:AckFrameLen])
	}
	return acks
}

// AppendAcks parses every frame in raw (frames are self-delimiting) and
// appends the ACK frames to send back to dst: one AckFrameLen frame per
// link × channel the batch touched, in first-touched order. now is the
// receiver's clock — simulated time in campaigns, a frame-count
// surrogate over real transports. Malformed bytes are counted and
// skipped; the go-back-N contract means a re-ACK of the current
// expectation always resynchronizes the sender.
func (s *Station) AppendAcks(dst, raw []byte, now time.Duration) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acks = s.acks[:0]
	for len(raw) > 0 {
		f, n, err := DecodeFrame(raw)
		if err != nil {
			if n == 0 {
				// Unparseable prefix (bad magic / truncated): the rest of
				// the buffer is garbage — count one rejection and stop.
				s.reject(raw)
				break
			}
			s.reject(raw)
			raw = raw[n:]
			continue
		}
		raw = raw[n:]
		if s.ingestFrame(f, now) {
			ls := s.links[f.Link]
			if !ls.needAck[f.VC] {
				ls.needAck[f.VC] = true
				s.acks = append(s.acks, ackKey{f.Link, f.VC})
			}
		}
	}
	for _, k := range s.acks {
		ls := s.links[k.link]
		ls.needAck[k.vc] = false
		var err error
		if dst, err = AppendAck(dst, k.link, k.vc, ls.vc[k.vc].Expected); err != nil {
			continue
		}
		if s.ins != nil {
			s.ins.AcksSent.Inc()
		}
	}
	return dst
}

// ingestFrame processes one decoded frame and reports whether its
// link × channel should be (re-)acknowledged.
func (s *Station) ingestFrame(f Frame, now time.Duration) bool {
	ls := s.links[f.Link]
	if ls == nil {
		ls = &linkState{}
		s.links[f.Link] = ls
		if s.ins != nil {
			s.ins.Links.Set(float64(len(s.links)))
		}
	}
	ls.lastSeen = now
	if s.ins != nil {
		s.ins.FramesReceived.Inc()
	}
	switch f.Type {
	case FrameBeacon:
		ls.beacons++
		if deg, backlog, err := BeaconValue(f); err == nil {
			ls.degraded = deg
			ls.backlog = backlog
		}
		if s.ins != nil {
			s.ins.BeaconsSeen.Inc()
		}
		return false
	case FrameAck:
		return false // stations do not receive ACKs
	}
	st := &ls.vc[f.VC]
	if f.Seq > st.Expected && f.Flags&FlagBase != 0 {
		// The sender's window base is above our expectation: the flight
		// recorder evicted the missing frames, so no retransmission will
		// ever fill the gap. Jump forward and account the loss — silent
		// gaps would read as "nothing happened" in the mission record.
		gap := uint64(f.Seq - st.Expected)
		st.Skipped += gap
		st.Expected = f.Seq
		if s.ins != nil {
			s.ins.Skipped.Add(gap)
		}
	}
	switch {
	case f.Seq == st.Expected:
		st.Expected++
		st.Delivered++
		ls.degraded = false
		if bytes.HasPrefix(f.Payload, []byte("watchdog_reset ")) {
			ls.wdResets++
		}
		if bytes.HasPrefix(f.Payload, []byte("recorder_recovered ")) {
			ls.recRecoveries++
		}
		if v, ok := payloadField(f.Payload, "mission_phase "); ok {
			ls.phase = v
		}
		if v, ok := payloadField(f.Payload, "adapt_level "); ok {
			ls.adaptMode = v
		}
		if f.VC == 0 && s.cfg.KeepPayloads > 0 {
			ls.keepP0(f.Payload, s.cfg.KeepPayloads)
		}
		if s.ins != nil {
			s.ins.FramesDelivered.Inc()
		}
		if s.cfg.Sink != nil {
			s.cfg.Sink(f.Link, f.VC, f.Seq, f.Payload)
		}
	case f.Seq < st.Expected:
		// Duplicate of an already-delivered frame (a lost ACK made the
		// sender repeat itself). Re-ACK so the window advances.
		st.Dups++
		if s.ins != nil {
			s.ins.Duplicates.Inc()
		}
	default:
		// Go-back-N receiver: out-of-order frames are discarded — the
		// sender will replay them — but the current expectation is
		// re-ACKed to hurry it along.
		st.OutOfOrd++
		if s.ins != nil {
			s.ins.OutOfOrder.Inc()
		}
	}
	return true
}

// keepP0 retains a copy of a delivered channel-0 payload, reusing the
// oldest retained buffer once keep are held.
func (ls *linkState) keepP0(payload []byte, keep int) {
	if len(ls.p0) < keep {
		ls.p0 = append(ls.p0, append([]byte(nil), payload...))
		return
	}
	ls.p0[ls.p0Next] = append(ls.p0[ls.p0Next][:0], payload...)
	ls.p0Next = (ls.p0Next + 1) % keep
}

// recentP0 returns the retained channel-0 payloads, oldest first.
func (ls *linkState) recentP0() []string {
	var out []string
	for i := range ls.p0 {
		out = append(out, string(ls.p0[(ls.p0Next+i)%len(ls.p0)]))
	}
	return out
}

// payloadField extracts the first space-delimited token after a
// "key " prefix — the value in the flight software's "key value k=v…"
// telemetry idiom.
func payloadField(payload []byte, prefix string) (string, bool) {
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return "", false
	}
	rest := payload[len(prefix):]
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	if len(rest) == 0 {
		return "", false
	}
	return string(rest), true
}

// reject counts a frame that failed decoding. Attribution is best
// effort: if the header's link-id bytes were readable the rejection is
// charged to that link (a CRC-failed frame usually still names its
// sender), otherwise it stays unattributed.
func (s *Station) reject(raw []byte) {
	if s.ins != nil {
		s.ins.Rejected.Inc()
	}
	if len(raw) >= 6 {
		link := uint16(raw[4]) | uint16(raw[5])<<8
		if ls := s.links[link]; ls != nil {
			ls.rejected++
		}
	}
}

// Delivered returns one link × channel's delivered in-order frame
// count.
func (s *Station) Delivered(link uint16, vc uint8) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.links[link]
	if ls == nil || vc >= NumVC {
		return 0
	}
	return ls.vc[vc].Delivered
}

// Skipped returns how many sequence numbers one link × channel jumped
// over because the sender's recorder evicted them.
func (s *Station) Skipped(link uint16, vc uint8) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.links[link]
	if ls == nil || vc >= NumVC {
		return 0
	}
	return ls.vc[vc].Skipped
}

// Links returns the known link ids in ascending order.
func (s *Station) Links() []uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint16, 0, len(s.links))
	for id := range s.links {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Report renders the aggregated mission state, links in ascending id
// order so serialization is deterministic.
func (s *Station) Report() []LinkReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint16, 0, len(s.links))
	for id := range s.links {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]LinkReport, 0, len(ids))
	for _, id := range ids {
		ls := s.links[id]
		r := LinkReport{
			Link: id, VC: ls.vc, Rejected: ls.rejected,
			Beacons: ls.beacons, Degraded: ls.degraded, Backlog: ls.backlog,
			LastSeen: ls.lastSeen, WatchdogResets: ls.wdResets,
			RecorderRecoveries: ls.recRecoveries,
			CurrentPhase:       ls.phase, AdaptMode: ls.adaptMode,
			RecentP0: ls.recentP0(),
		}
		out = append(out, r)
	}
	return out
}

// StateJSON serializes the aggregated mission state.
func (s *Station) StateJSON() ([]byte, error) {
	rep := s.Report()
	b, err := json.MarshalIndent(struct {
		Links []LinkReport `json:"links"`
	}{Links: rep}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("downlink: state: %w", err)
	}
	return b, nil
}
