package experiments

import (
	"time"

	"radshield/internal/downlink"
)

// groundPass is the ground half of the comms tick the downlink and
// adaptive arms fly: it owns the buffers one pass reuses, so a steady
// state tick allocates nothing.
type groundPass struct {
	link *downlink.Link
	st   *downlink.Station
	down []byte // this pass's arriving frames, back to back
	acks []byte // the station's ACK frames for them
}

// run ingests every frame arriving at the ground by now as one batch
// and sends the station's ACKs back up the link.
func (g *groundPass) run(now time.Duration) {
	g.down = g.down[:0]
	for _, raw := range g.link.RecvDown(now) {
		g.down = append(g.down, raw...)
	}
	if len(g.down) == 0 {
		return
	}
	g.acks = g.st.AppendAcks(g.acks[:0], g.down, now)
	for b := g.acks; len(b) > 0; b = b[downlink.AckFrameLen:] {
		g.link.SendUp(b[:downlink.AckFrameLen], now)
	}
}

// totals sums the station's delivered and skipped frames over every
// link and channel, and the channel-0 deliveries.
func (g *groundPass) totals() (delivered, skipped, p0 uint64) {
	for _, id := range g.st.Links() {
		for vc := uint8(0); vc < downlink.NumVC; vc++ {
			delivered += g.st.Delivered(id, vc)
			skipped += g.st.Skipped(id, vc)
		}
		p0 += g.st.Delivered(id, 0)
	}
	return delivered, skipped, p0
}

// appendDuration appends d exactly as d.String() formats it; the
// downlink payloads, and through them the campaign goldens, depend on
// those bytes. Duration.String is inlinable and its result does not
// escape here, so the append allocates nothing.
func appendDuration(dst []byte, d time.Duration) []byte {
	return append(dst, d.String()...)
}
