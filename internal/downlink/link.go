package downlink

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// LinkConfig describes the radio channel between one spacecraft and
// the ground station.
type LinkConfig struct {
	// RateBps / AckRateBps cap the space-to-ground and ground-to-space
	// directions in bytes per second of simulated time (token bucket,
	// one MaxFrameLen of burst).
	RateBps    int
	AckRateBps int
	// Latency is the one-way propagation delay, applied to both
	// directions.
	Latency time.Duration
	// Seed drives the loss model. Two links with the same seed and the
	// same call sequence behave identically.
	Seed int64
}

// DefaultLinkConfig models a bandwidth-starved LEO UHF link: 4 KiB/s
// down, 1 KiB/s up, 200 ms one-way latency.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RateBps:    4096,
		AckRateBps: 1024,
		Latency:    200 * time.Millisecond,
	}
}

// LinkFault is a scheduled impairment window: within [Start,
// Start+Duration) each traversing frame is independently dropped,
// bit-corrupted, or held back one extra latency (reordered) with the
// given probabilities. Duration 0 means the window never closes.
type LinkFault struct {
	Start    time.Duration
	Duration time.Duration
	Drop     float64
	Corrupt  float64
	Reorder  float64
}

// active reports whether the window covers instant t.
func (f LinkFault) active(t time.Duration) bool {
	return t >= f.Start && (f.Duration <= 0 || t < f.Start+f.Duration)
}

// Blackout is a scheduled loss-of-contact window: every frame
// transmitted in either direction within it is lost. Mission traces
// turn their non-contact arcs into blackout schedules.
type Blackout struct {
	Start    time.Duration
	Duration time.Duration
}

func (b Blackout) active(t time.Duration) bool {
	return t >= b.Start && t < b.Start+b.Duration
}

// delivery is one frame in flight.
type delivery struct {
	due  time.Duration
	id   int // insertion order, for stable same-instant ordering
	data []byte
}

// frameSlabBufs is how many MaxFrameLen frame buffers a pipe carves
// from one slab, and the room its lists start with. A downlink-campaign
// arm's down pipe peaks at 12 to 24 buffers and its up pipe at 3 to 6,
// so a pipe allocates one or two slabs instead of a buffer per frame in
// flight, and its lists grow once at most.
const frameSlabBufs = 16

// pipe is one direction of the link. Accepted frames are copied into
// MaxFrameLen buffers that cycle between inflight, the last recv's
// result and free, so a steady-state pipe allocates nothing.
type pipe struct {
	rateBps  int
	latency  time.Duration
	seed     int64
	rng      *rand.Rand // nil until the first draw; see source
	budget   int64      // bytes × nanoseconds still spendable
	lastNow  time.Duration
	inflight []delivery
	nextID   int
	free     [][]byte // recycled frame buffers
	out      [][]byte // recv's result, lent to the caller until the next recv
	slab     []byte   // the uncarved rest of the last frame slab

	dropped      uint64
	corrupted    uint64
	reordered    uint64
	blackoutLost uint64
}

// LinkStats are the loss model's cumulative tallies, summed over both
// directions.
type LinkStats struct {
	Dropped      uint64
	Corrupted    uint64
	Reordered    uint64
	BlackoutLost uint64
}

// Link is the seeded, deterministic lossy radio: a down pipe for data
// frames and an up pipe for ACKs, sharing the fault and blackout
// schedules. Link is not safe for concurrent use; each simulated
// spacecraft owns one.
type Link struct {
	cfg       LinkConfig
	down, up  pipe
	faults    []LinkFault
	blackouts []Blackout
	ins       *Instruments

	// Transition latches for KindLinkFault events: windows are checked
	// lazily at send time, so an onset is stamped with the first frame
	// that met it.
	faultOpen    bool
	blackoutOpen bool
}

// NewLink validates cfg and builds the channel.
func NewLink(cfg LinkConfig) (*Link, error) {
	if cfg.RateBps < 1 || cfg.AckRateBps < 1 {
		return nil, fmt.Errorf("downlink: link rates %d/%d must be ≥ 1 B/s", cfg.RateBps, cfg.AckRateBps)
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("downlink: negative link latency %v", cfg.Latency)
	}
	return &Link{
		cfg:  cfg,
		down: newPipe(cfg.RateBps, cfg.Latency, cfg.Seed),
		up:   newPipe(cfg.AckRateBps, cfg.Latency, cfg.Seed^0x5AD5),
	}, nil
}

// newPipe returns an empty pipe whose lists have room for one slab's
// buffers.
func newPipe(rateBps int, latency time.Duration, seed int64) pipe {
	return pipe{
		rateBps:  rateBps,
		latency:  latency,
		seed:     seed,
		inflight: make([]delivery, 0, frameSlabBufs),
		free:     make([][]byte, 0, frameSlabBufs),
		out:      make([][]byte, 0, frameSlabBufs),
	}
}

// SetInstruments attaches metric handles for the loss tallies.
func (l *Link) SetInstruments(ins *Instruments) { l.ins = ins }

// ScheduleLinkFault registers an impairment window.
func (l *Link) ScheduleLinkFault(f LinkFault) error {
	if f.Start < 0 || f.Duration < 0 {
		return fmt.Errorf("downlink: link fault start %v / duration %v must be ≥ 0", f.Start, f.Duration)
	}
	for _, p := range []float64{f.Drop, f.Corrupt, f.Reorder} {
		if p < 0 || p > 1 {
			return fmt.Errorf("downlink: link fault probability %v outside [0, 1]", p)
		}
	}
	l.faults = append(l.faults, f)
	return nil
}

// ScheduleBlackout registers a loss-of-contact window.
func (l *Link) ScheduleBlackout(b Blackout) error {
	if b.Start < 0 || b.Duration <= 0 {
		return fmt.Errorf("downlink: blackout start %v must be ≥ 0 and duration %v > 0", b.Start, b.Duration)
	}
	l.blackouts = append(l.blackouts, b)
	return nil
}

// InBlackout reports whether the link is out of contact at instant t.
func (l *Link) InBlackout(t time.Duration) bool {
	for _, b := range l.blackouts {
		if b.active(t) {
			return true
		}
	}
	return false
}

// fault returns the combined impairment probabilities at instant t
// (windows stack additively, capped at 1).
func (l *Link) fault(t time.Duration) (drop, corrupt, reorder float64) {
	for _, f := range l.faults {
		if f.active(t) {
			drop += f.Drop
			corrupt += f.Corrupt
			reorder += f.Reorder
		}
	}
	cap1 := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		return p
	}
	return cap1(drop), cap1(corrupt), cap1(reorder)
}

// CanSendDown reports whether the down pipe's bandwidth budget admits
// an n-byte frame at instant now. Transmitters poll this before
// consuming a frame so bandwidth starvation delays rather than drops.
func (l *Link) CanSendDown(n int, now time.Duration) bool {
	return l.down.canSend(n, now)
}

// SendDown transmits an encoded frame space-to-ground. The return
// value reports whether the pipe accepted the bytes (false = no
// bandwidth; the caller retries later). An accepted frame may still be
// lost or mangled by the loss model — that is what ARQ is for.
func (l *Link) SendDown(b []byte, now time.Duration) bool {
	return l.send(&l.down, b, now)
}

// RecvDown returns the frames arriving at the ground at or before now,
// in deterministic arrival order, or nil if none. The slice and the
// frames are the link's own buffers: they stay valid, whatever is sent
// meanwhile, until the next RecvDown.
func (l *Link) RecvDown(now time.Duration) [][]byte {
	return l.down.recv(now)
}

// SendUp transmits an encoded frame ground-to-space (ACKs).
func (l *Link) SendUp(b []byte, now time.Duration) bool {
	return l.send(&l.up, b, now)
}

// RecvUp returns the frames arriving at the spacecraft at or before
// now, valid until the next RecvUp (see RecvDown).
func (l *Link) RecvUp(now time.Duration) [][]byte {
	return l.up.recv(now)
}

// Stats sums the loss tallies over both directions.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Dropped:      l.down.dropped + l.up.dropped,
		Corrupted:    l.down.corrupted + l.up.corrupted,
		Reordered:    l.down.reordered + l.up.reordered,
		BlackoutLost: l.down.blackoutLost + l.up.blackoutLost,
	}
}

// send pushes a copy of b through p, applying blackout and fault
// windows.
func (l *Link) send(p *pipe, b []byte, now time.Duration) bool {
	if !p.canSend(len(b), now) {
		return false
	}
	p.budget -= int64(len(b)) * int64(time.Second)
	l.noteWindows(now)
	if l.InBlackout(now) {
		p.blackoutLost++
		l.ins.linkBlackoutLost()
		return true
	}
	drop, corrupt, reorder := l.fault(now)
	// One uniform draw per hazard keeps the stream deterministic and
	// makes the hazards independent, matching the sweep's loss grid.
	if drop > 0 && p.source().Float64() < drop {
		p.dropped++
		l.ins.linkDropped()
		return true
	}
	data := append(p.buffer(), b...)
	if corrupt > 0 && p.source().Float64() < corrupt {
		bit := p.source().Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		p.corrupted++
		l.ins.linkCorrupted()
	}
	due := now + p.latency
	if reorder > 0 && p.source().Float64() < reorder {
		due += p.latency // held one extra propagation slot
		p.reordered++
		l.ins.linkReordered()
	}
	p.deliver(delivery{due: due, data: data})
	return true
}

// noteWindows emits a link_fault event when a scheduled impairment or
// blackout window transitions, as observed by traffic.
func (l *Link) noteWindows(now time.Duration) {
	if l.ins == nil {
		return
	}
	if blackout := l.InBlackout(now); blackout != l.blackoutOpen {
		l.blackoutOpen = blackout
		l.ins.linkWindow(now, "blackout", blackout)
	}
	d, c, r := l.fault(now)
	if faulty := d > 0 || c > 0 || r > 0; faulty != l.faultOpen {
		l.faultOpen = faulty
		l.ins.linkWindow(now, "fault", faulty)
	}
}

// source returns the pipe's loss-model stream, seeding it on the first
// draw, as machine.IOCheck seeds its own: a clean link never draws, so
// it never builds one, and a seeded stream yields the same draws
// whenever it is built.
func (p *pipe) source() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng
}

// canSend accrues the token bucket to now and checks the budget.
func (p *pipe) canSend(n int, now time.Duration) bool {
	if now > p.lastNow {
		p.budget += int64(now-p.lastNow) * int64(p.rateBps)
		if burst := int64(MaxFrameLen) * int64(time.Second); p.budget > burst {
			p.budget = burst
		}
		p.lastNow = now
	}
	return p.budget >= int64(n)*int64(time.Second)
}

// deliver inserts d keeping inflight sorted by (due, insertion id).
func (p *pipe) deliver(d delivery) {
	d.id = p.nextID
	p.nextID++
	i := sort.Search(len(p.inflight), func(i int) bool {
		f := p.inflight[i]
		return f.due > d.due || (f.due == d.due && f.id > d.id)
	})
	p.inflight = append(p.inflight, delivery{})
	copy(p.inflight[i+1:], p.inflight[i:])
	p.inflight[i] = d
}

// buffer returns an empty frame buffer with room for any frame the
// token bucket can admit (at most MaxFrameLen bytes): a recycled one,
// or else the next one carved from the pipe's slab, its capacity ending
// where its neighbour's begins.
func (p *pipe) buffer() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:0]
	}
	if len(p.slab) == 0 {
		p.slab = make([]byte, frameSlabBufs*MaxFrameLen)
	}
	b := p.slab[:0:MaxFrameLen]
	p.slab = p.slab[MaxFrameLen:]
	return b
}

// recv takes back the buffers lent by the previous recv, then pops
// every delivery due at or before now, compacting inflight in place.
func (p *pipe) recv(now time.Duration) [][]byte {
	p.free = append(p.free, p.out...)
	p.out = p.out[:0]
	n := 0
	for n < len(p.inflight) && p.inflight[n].due <= now {
		p.out = append(p.out, p.inflight[n].data)
		n++
	}
	if n == 0 {
		return nil
	}
	p.inflight = p.inflight[:copy(p.inflight, p.inflight[n:])]
	return p.out
}
