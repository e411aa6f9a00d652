package downlink

import (
	"math/rand"
	"sort"
	"time"
)

// The link as it was written before its pipes carved their frame
// buffers from slabs, started their lists with room and seeded their
// loss streams on the first draw, kept as the reference that
// FuzzLinkMatchesReference holds Link to: a buffer made per frame, lists
// grown from empty, and both streams seeded when the link is built.

// referencePipe is one direction of referenceLink.
type referencePipe struct {
	rateBps  int
	latency  time.Duration
	rng      *rand.Rand
	budget   int64 // bytes × nanoseconds still spendable
	lastNow  time.Duration
	inflight []delivery
	nextID   int
	free     [][]byte // recycled frame buffers
	out      [][]byte // recv's result, lent to the caller until the next recv

	dropped      uint64
	corrupted    uint64
	reordered    uint64
	blackoutLost uint64
}

// referenceLink is the reference radio: a down pipe and an up pipe
// sharing the fault and blackout schedules.
type referenceLink struct {
	down, up  *referencePipe
	faults    []LinkFault
	blackouts []Blackout
}

func newReferenceLink(cfg LinkConfig) *referenceLink {
	return &referenceLink{
		down: &referencePipe{rateBps: cfg.RateBps, latency: cfg.Latency, rng: rand.New(rand.NewSource(cfg.Seed))},
		up:   &referencePipe{rateBps: cfg.AckRateBps, latency: cfg.Latency, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5AD5))},
	}
}

func (l *referenceLink) inBlackout(t time.Duration) bool {
	for _, b := range l.blackouts {
		if b.active(t) {
			return true
		}
	}
	return false
}

func (l *referenceLink) fault(t time.Duration) (drop, corrupt, reorder float64) {
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

func (l *referenceLink) stats() LinkStats {
	return LinkStats{
		Dropped:      l.down.dropped + l.up.dropped,
		Corrupted:    l.down.corrupted + l.up.corrupted,
		Reordered:    l.down.reordered + l.up.reordered,
		BlackoutLost: l.down.blackoutLost + l.up.blackoutLost,
	}
}

func (l *referenceLink) send(p *referencePipe, b []byte, now time.Duration) bool {
	if !p.canSend(len(b), now) {
		return false
	}
	p.budget -= int64(len(b)) * int64(time.Second)
	if l.inBlackout(now) {
		p.blackoutLost++
		return true
	}
	drop, corrupt, reorder := l.fault(now)
	if drop > 0 && p.rng.Float64() < drop {
		p.dropped++
		return true
	}
	data := append(p.buffer(), b...)
	if corrupt > 0 && p.rng.Float64() < corrupt {
		bit := p.rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		p.corrupted++
	}
	due := now + p.latency
	if reorder > 0 && p.rng.Float64() < reorder {
		due += p.latency
		p.reordered++
	}
	p.deliver(delivery{due: due, data: data})
	return true
}

func (p *referencePipe) canSend(n int, now time.Duration) bool {
	if now > p.lastNow {
		p.budget += int64(now-p.lastNow) * int64(p.rateBps)
		if burst := int64(MaxFrameLen) * int64(time.Second); p.budget > burst {
			p.budget = burst
		}
		p.lastNow = now
	}
	return p.budget >= int64(n)*int64(time.Second)
}

func (p *referencePipe) deliver(d delivery) {
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

func (p *referencePipe) buffer() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, MaxFrameLen)
}

func (p *referencePipe) recv(now time.Duration) [][]byte {
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
