//go:build !race

// Allocation-regression tests for the comms path: the downlink and
// adaptive campaigns run one comms tick per simulated 100 ms, so a
// per-frame allocation in the codec, link, recorder or station was most
// of flight-ops' heap objects (see PERFORMANCE.md). Excluded under
// -race: race instrumentation allocates on its own.

package downlink

import (
	"bufio"
	"bytes"
	"strconv"
	"testing"
	"time"
)

// tickRig is one spacecraft and its ground station, pumped the way the
// campaigns pump them, with every buffer reused across ticks.
type tickRig struct {
	tx       *Transmitter
	st       *Station
	link     *Link
	now      time.Duration
	n        uint64
	payload  []byte
	down     []byte
	acks     []byte
	received uint64
}

func newTickRig(t *testing.T, lossy bool) *tickRig {
	t.Helper()
	link, err := NewLink(LinkConfig{RateBps: 512, AckRateBps: 1024, Latency: 200 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lossy {
		if err := link.ScheduleLinkFault(LinkFault{Drop: 0.2, Corrupt: 0.1, Reorder: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultTxConfig(1)
	cfg.RingCap = 16
	tx, err := NewTransmitter(link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultStationConfig()
	scfg.KeepPayloads = 4
	return &tickRig{tx: tx, st: NewStation(scfg), link: link}
}

// tick is one steady-state round trip: Enqueue → Tick → RecvDown →
// AppendAcks → SendUp. Two records per tick outrun the 512 B/s link
// (under one 55-byte frame per tick), so the 16-record recorder stays
// full and evicts on every tick.
func (r *tickRig) tick(t *testing.T) {
	r.now += 100 * time.Millisecond
	for _, vc := range []uint8{0, 3} {
		r.n++
		r.payload = strconv.AppendUint(append(r.payload[:0], "evt seq="...), r.n, 10)
		r.payload = append(r.payload, " of a telemetry payload"...)
		if err := r.tx.Enqueue(vc, r.payload, r.now); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.tx.Tick(r.now); err != nil {
		t.Fatal(err)
	}
	r.down = r.down[:0]
	for _, raw := range r.link.RecvDown(r.now) {
		r.down = append(r.down, raw...)
	}
	r.acks = r.st.AppendAcks(r.acks[:0], r.down, r.now)
	for b := r.acks; len(b) > 0; b = b[AckFrameLen:] {
		r.link.SendUp(b[:AckFrameLen], r.now)
	}
	r.received += uint64(len(r.acks) / AckFrameLen)
}

func TestAllocsCommsTick(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		name := "clean"
		if lossy {
			name = "lossy"
		}
		t.Run(name, func(t *testing.T) {
			r := newTickRig(t, lossy)
			for i := 0; i < 2000; i++ { // fill the recorder, the free lists and the station ring
				r.tick(t)
			}
			evicted, delivered := r.tx.Evicted(), r.st.Delivered(1, 0)
			// On the lossy link a frame whose corrupted header no longer
			// parses still gets an error value (DecodeFrame's positional
			// context); that costs about one allocation per twenty ticks,
			// so the per-tick count stays 0.
			avg := testing.AllocsPerRun(1000, func() { r.tick(t) })
			if avg != 0 {
				t.Errorf("steady-state comms tick allocates %.3f objects, want 0", avg)
			}
			// The measured ticks must exercise the whole path.
			if r.tx.Evicted() == evicted {
				t.Error("recorder never evicted: the tick does not cover eviction")
			}
			if r.st.Delivered(1, 0) == delivered {
				t.Error("no channel-0 frame delivered: the tick does not cover KeepPayloads")
			}
			if r.received == 0 {
				t.Error("station never ACKed")
			}
		})
	}
}

func TestAllocsFrameCodec(t *testing.T) {
	payload := []byte("sel_detected level=max t=1h2m3.5s")
	buf := make([]byte, 0, MaxFrameLen)
	avg := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendFrame(buf[:0], Frame{Type: FrameData, Link: 1, VC: 0, Seq: 7, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeFrame(buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("AppendFrame+DecodeFrame allocate %.3f objects, want 0", avg)
	}
}

// TestAllocsReadFrame pins the stream reader the TCP transports use: a
// reader that passes its MaxFrameLen buffer back in allocates nothing
// per frame, line noise and a corrupt length field included.
func TestAllocsReadFrame(t *testing.T) {
	var stream []byte
	for seq := uint32(0); seq < 4; seq++ {
		stream = append(stream, "\xFF\x00noise"...)
		stream = append(stream, 0x5A, 0xD5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF) // length past MaxPayload
		var err error
		if stream, err = AppendFrame(stream, Frame{Type: FrameData, Link: 2, Seq: seq, Payload: []byte("housekeeping")}); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, 4*MaxFrameLen)
	buf := make([]byte, 0, MaxFrameLen)
	avg := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		br.Reset(src)
		for seq := uint32(0); seq < 4; seq++ {
			var err error
			if buf, err = ReadFrame(br, buf); err != nil {
				t.Fatal(err)
			}
			if f, _, err := DecodeFrame(buf); err != nil || f.Seq != seq {
				t.Fatalf("frame %d: got seq %d, %v", seq, f.Seq, err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("ReadFrame into a reused buffer allocates %.3f objects per 4 frames, want 0", avg)
	}
}

func TestAllocsRecorderRestore(t *testing.T) {
	page := loadedRecorder(t).Snapshot()
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(page); err != nil { // sizes the queues and payload buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := r.Restore(page); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Restore of an already-restored shape allocates %.3f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { r.Snapshot() }); avg != 1 {
		t.Errorf("Snapshot allocates %.3f objects, want 1 (the page)", avg)
	}
}

// TestAllocsRecorderFill pins the payload slabs: a fresh recorder filled
// to its capacity with small payloads, none acknowledged, allocates a
// slab per payloadSlabBufs records and its queue's growth, not a buffer
// per record (79 objects, against 4,111 when every record made its own).
func TestAllocsRecorderFill(t *testing.T) {
	const n = 4096
	payload := []byte("sel_detected level=max t=1h2m3.5s")
	avg := testing.AllocsPerRun(10, func() {
		r, err := NewRecorder(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, _, err := r.Enqueue(3, payload, time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f objects for %d records", avg, n)
	if avg > n/32 {
		t.Errorf("filling a %d-record recorder allocates %.0f objects, want ≤ %d", n, avg, n/32)
	}
}
