package downlink

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"radshield/internal/telemetry"
)

func mustFrame(t *testing.T, vc uint8, seq uint32, payload string) []byte {
	t.Helper()
	raw, err := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: vc, Seq: seq, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(LinkConfig{RateBps: 0, AckRateBps: 1}); err == nil {
		t.Fatal("accepted zero rate")
	}
	if _, err := NewLink(LinkConfig{RateBps: 1, AckRateBps: 1, Latency: -time.Second}); err == nil {
		t.Fatal("accepted negative latency")
	}
	l, _ := NewLink(DefaultLinkConfig())
	if err := l.ScheduleLinkFault(LinkFault{Drop: 1.5}); err == nil {
		t.Fatal("accepted probability > 1")
	}
	if err := l.ScheduleLinkFault(LinkFault{Start: -1}); err == nil {
		t.Fatal("accepted negative start")
	}
	if err := l.ScheduleBlackout(Blackout{Duration: 0}); err == nil {
		t.Fatal("accepted zero-length blackout")
	}
}

func TestLinkBandwidthBudget(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1000, AckRateBps: 1000})
	raw := mustFrame(t, 0, 0, "0123456789") // 28 bytes encoded

	// The bucket starts empty: nothing is affordable at t=0.
	if l.CanSendDown(len(raw), 0) {
		t.Fatal("empty bucket admitted a frame")
	}
	// At 1000 B/s the 28-byte frame is affordable after 28 ms.
	if l.CanSendDown(len(raw), 27*time.Millisecond) {
		t.Fatal("frame admitted before its byte budget accrued")
	}
	if !l.CanSendDown(len(raw), 28*time.Millisecond) {
		t.Fatal("frame still denied after its byte budget accrued")
	}
	if !l.SendDown(raw, 28*time.Millisecond) {
		t.Fatal("SendDown refused an affordable frame")
	}
	// The spend drains the bucket: a second frame must wait again.
	if l.SendDown(raw, 28*time.Millisecond) {
		t.Fatal("second frame sent without budget")
	}
	// The bucket caps at one MaxFrameLen of burst.
	if l.CanSendDown(MaxFrameLen+1, time.Hour) {
		t.Fatal("burst exceeded MaxFrameLen")
	}
	if !l.CanSendDown(MaxFrameLen, time.Hour) {
		t.Fatal("full burst denied after a long idle")
	}
}

func TestLinkLatencyAndOrdering(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20, Latency: 100 * time.Millisecond})
	a := mustFrame(t, 0, 0, "a")
	b := mustFrame(t, 0, 1, "b")
	if !l.SendDown(a, 10*time.Millisecond) || !l.SendDown(b, 20*time.Millisecond) {
		t.Fatal("sends refused")
	}
	if got := l.RecvDown(100 * time.Millisecond); got != nil {
		t.Fatalf("delivery before latency elapsed: %d frames", len(got))
	}
	got := l.RecvDown(110 * time.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], a) {
		t.Fatalf("first delivery wrong: %d frames", len(got))
	}
	got = l.RecvDown(200 * time.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], b) {
		t.Fatalf("second delivery wrong: %d frames", len(got))
	}
}

// TestLinkRecvValidUntilNextRecv pins the receive contract: the frames
// RecvDown returns are the link's recycled buffers, and they must
// survive any number of later sends until the next RecvDown takes them
// back.
func TestLinkRecvValidUntilNextRecv(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20, Latency: 10 * time.Millisecond})
	a, b := mustFrame(t, 0, 0, "first frame"), mustFrame(t, 0, 1, "second frame")
	l.SendDown(a, time.Millisecond)
	l.SendDown(b, time.Millisecond)
	got := l.RecvDown(11 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("got %d frames, want 2", len(got))
	}
	for i := 0; i < 20; i++ {
		at := 11*time.Millisecond + time.Duration(i)*time.Millisecond
		if !l.SendDown(mustFrame(t, 1, uint32(i), "later traffic that must not land in lent buffers"), at) {
			t.Fatalf("send %d refused", i)
		}
	}
	if !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatalf("lent frames changed before the next RecvDown:\n% x\n% x", got[0], got[1])
	}
	if next := l.RecvDown(time.Hour); len(next) != 20 {
		t.Fatalf("later traffic: %d frames, want 20", len(next))
	}
}

func TestLinkDropWindow(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20, Seed: 1})
	if err := l.ScheduleLinkFault(LinkFault{Start: 0, Duration: time.Second, Drop: 1}); err != nil {
		t.Fatal(err)
	}
	raw := mustFrame(t, 0, 0, "x")
	if !l.SendDown(raw, 100*time.Millisecond) {
		t.Fatal("send refused")
	}
	if got := l.RecvDown(time.Hour); got != nil {
		t.Fatalf("dropped frame delivered: %d", len(got))
	}
	if l.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", l.Stats().Dropped)
	}
	// Outside the window the frame goes through.
	if !l.SendDown(raw, 2*time.Second) {
		t.Fatal("post-window send refused")
	}
	if got := l.RecvDown(time.Hour); len(got) != 1 {
		t.Fatalf("post-window frame lost: %d", len(got))
	}
}

func TestLinkCorruptWindowIsCaughtByCRC(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20, Seed: 7})
	l.ScheduleLinkFault(LinkFault{Start: 0, Corrupt: 1}) // never closes
	raw := mustFrame(t, 0, 0, "payload under test")
	if !l.SendDown(raw, time.Millisecond) {
		t.Fatal("send refused")
	}
	got := l.RecvDown(time.Hour)
	if len(got) != 1 {
		t.Fatalf("corrupted frame should still arrive, got %d", len(got))
	}
	if bytes.Equal(got[0], raw) {
		t.Fatal("frame not actually corrupted")
	}
	if _, _, err := DecodeFrame(got[0]); err == nil {
		t.Fatal("single-bit corruption slipped past the CRC")
	}
	if l.Stats().Corrupted != 1 {
		t.Fatalf("Corrupted = %d", l.Stats().Corrupted)
	}
}

func TestLinkReorderWindow(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20, Latency: 100 * time.Millisecond, Seed: 3})
	l.ScheduleLinkFault(LinkFault{Start: 0, Duration: 50 * time.Millisecond, Reorder: 1})
	a := mustFrame(t, 0, 0, "a") // inside the window: held one extra latency
	b := mustFrame(t, 0, 1, "b") // outside: normal latency
	l.SendDown(a, 10*time.Millisecond)
	l.SendDown(b, 60*time.Millisecond)
	got := l.RecvDown(170 * time.Millisecond) // b due at 160, a due at 210
	if len(got) != 1 || !bytes.Equal(got[0], b) {
		t.Fatalf("expected b first, got %d frames", len(got))
	}
	got = l.RecvDown(220 * time.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], a) {
		t.Fatalf("expected delayed a, got %d frames", len(got))
	}
	if l.Stats().Reordered != 1 {
		t.Fatalf("Reordered = %d", l.Stats().Reordered)
	}
}

func TestLinkBlackoutLosesBothDirections(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20})
	l.ScheduleBlackout(Blackout{Start: 0, Duration: time.Second})
	if !l.InBlackout(500 * time.Millisecond) {
		t.Fatal("InBlackout false inside the window")
	}
	if l.InBlackout(time.Second) {
		t.Fatal("InBlackout true at the window's end")
	}
	raw := mustFrame(t, 0, 0, "x")
	ack, _ := AppendAck(nil, 1, 0, 1)
	if !l.SendDown(raw, 500*time.Millisecond) || !l.SendUp(ack, 500*time.Millisecond) {
		t.Fatal("blackout sends should consume the frame")
	}
	if l.RecvDown(time.Hour) != nil || l.RecvUp(time.Hour) != nil {
		t.Fatal("blackout frames delivered")
	}
	if l.Stats().BlackoutLost != 2 {
		t.Fatalf("BlackoutLost = %d", l.Stats().BlackoutLost)
	}
}

func TestLinkFaultWindowsStack(t *testing.T) {
	l, _ := NewLink(LinkConfig{RateBps: 1, AckRateBps: 1})
	l.ScheduleLinkFault(LinkFault{Start: 0, Drop: 0.7})
	l.ScheduleLinkFault(LinkFault{Start: 0, Drop: 0.7})
	drop, _, _ := l.fault(0)
	if drop != 1 {
		t.Fatalf("stacked drop = %v, want capped at 1", drop)
	}
}

// TestLinkDeterminism runs an identical traffic pattern through two
// same-seeded links and demands identical outcomes — the property every
// campaign's paired arms rely on.
func TestLinkDeterminism(t *testing.T) {
	run := func() (LinkStats, [][]byte) {
		cfg := LinkConfig{RateBps: 4096, AckRateBps: 1024, Latency: 50 * time.Millisecond, Seed: 99}
		l, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.ScheduleLinkFault(LinkFault{Start: 0, Duration: 10 * time.Second, Drop: 0.3, Corrupt: 0.2, Reorder: 0.1})
		var delivered [][]byte
		for i := 0; i < 200; i++ {
			now := time.Duration(i) * 50 * time.Millisecond
			raw := mustFrame(t, uint8(i%NumVC), uint32(i), "deterministic payload")
			l.SendDown(raw, now)
			for _, f := range l.RecvDown(now) { // the link reuses f after the next RecvDown
				delivered = append(delivered, append([]byte(nil), f...))
			}
		}
		for _, f := range l.RecvDown(time.Hour) {
			delivered = append(delivered, append([]byte(nil), f...))
		}
		return l.Stats(), delivered
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if !bytes.Equal(d1[i], d2[i]) {
			t.Fatalf("delivery %d diverged", i)
		}
	}
}

func TestLinkWindowEvents(t *testing.T) {
	reg := telemetry.NewRegistry(32)
	l, err := NewLink(LinkConfig{RateBps: 1 << 20, AckRateBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	l.SetInstruments(NewInstruments(reg))
	if err := l.ScheduleLinkFault(LinkFault{Start: time.Second, Duration: time.Second, Drop: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.ScheduleBlackout(Blackout{Start: 3 * time.Second, Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	// Traffic before, inside, and after each window: the transitions
	// are observed lazily by the frames that meet them.
	for i, at := range []time.Duration{
		500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond,
		3500 * time.Millisecond, 4500 * time.Millisecond,
	} {
		l.SendDown(mustFrame(t, 0, uint32(i), "probe"), at)
	}
	var got []string
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind != telemetry.KindLinkFault {
			continue
		}
		got = append(got, ev.Fields["window"].(string)+":"+ev.Fields["phase"].(string))
	}
	want := []string{"fault:onset", "fault:clear", "blackout:onset", "blackout:clear"}
	if len(got) != len(want) {
		t.Fatalf("link_fault events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("link_fault events = %v, want %v", got, want)
		}
	}
}

// FuzzLinkMatchesReference holds Link to the reference link kept in
// link_reference_test.go, over a random schedule of fault windows and
// blackouts and a program of sends and receives in both directions:
// both must accept the same sends and deliver the same bytes in the same
// order, Link must keep every frame it lent intact until the next
// receive in that direction, and both must count the same LinkStats and
// leave each direction's loss stream at the same draw.
func FuzzLinkMatchesReference(f *testing.F) {
	f.Add(int64(0), []byte{})
	for seed := int64(1); seed <= 8; seed++ {
		program := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(program)
		f.Add(seed, program)
	}
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		rng := rand.New(rand.NewSource(seed))
		cfg := LinkConfig{
			RateBps:    64 + rng.Intn(8192),
			AckRateBps: 64 + rng.Intn(2048),
			Latency:    time.Duration(rng.Intn(2000)) * time.Millisecond,
			Seed:       seed,
		}
		// Each op advances the clock by up to 63 ticks: short ticks pile
		// frames up in flight, long ones drain the pipes between sends.
		tick := time.Duration(1+rng.Intn(40)) * time.Millisecond
		span := 1 + 32*len(program)*int(tick/time.Millisecond) // the program's expected length, ms
		got, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := newReferenceLink(cfg)
		probs := []float64{0, 0.05, 0.35, 1}
		for range rng.Intn(4) {
			lf := LinkFault{
				Start:    time.Duration(rng.Intn(span)) * time.Millisecond,
				Duration: time.Duration(rng.Intn(span)) * time.Millisecond, // 0: never closes
				Drop:     probs[rng.Intn(len(probs))],
				Corrupt:  probs[rng.Intn(len(probs))],
				Reorder:  probs[rng.Intn(len(probs))],
			}
			if err := got.ScheduleLinkFault(lf); err != nil {
				t.Fatal(err)
			}
			want.faults = append(want.faults, lf)
		}
		for range rng.Intn(3) {
			b := Blackout{Start: time.Duration(rng.Intn(span)) * time.Millisecond, Duration: time.Duration(1+rng.Intn(span/4+1)) * time.Millisecond}
			if err := got.ScheduleBlackout(b); err != nil {
				t.Fatal(err)
			}
			want.blackouts = append(want.blackouts, b)
		}

		// lent holds what Link's last receive in each direction returned,
		// and copies of its frames, to check them against at the next.
		var lent, lentCopy [2][][]byte
		checkLent := func(dir int) {
			for i, b := range lent[dir] {
				if !bytes.Equal(b, lentCopy[dir][i]) {
					t.Fatalf("direction %d: lent frame %d changed before the next receive", dir, i)
				}
			}
		}
		send := [2]func([]byte, time.Duration) bool{got.SendDown, got.SendUp}
		recv := [2]func(time.Duration) [][]byte{got.RecvDown, got.RecvUp}
		ref := [2]*referencePipe{want.down, want.up}
		frame := make([]byte, MaxFrameLen+64)
		var now time.Duration
		for i, op := range program {
			now += time.Duration(op>>2) * tick
			dir := int(op & 1) // 0: down, 1: up
			if op&2 == 0 {
				n := 1 + rng.Intn(96)
				if rng.Intn(8) == 0 { // up to past what the token bucket ever admits
					n = 1 + rng.Intn(len(frame))
				}
				rng.Read(frame[:n])
				if g, w := send[dir](frame[:n], now), want.send(ref[dir], frame[:n], now); g != w {
					t.Fatalf("op %d: direction %d accepted a %d-byte frame: %v, reference %v", i, dir, n, g, w)
				}
				continue
			}
			checkLent(dir)
			g, w := recv[dir](now), ref[dir].recv(now)
			if len(g) != len(w) {
				t.Fatalf("op %d: direction %d delivered %d frames, reference %d", i, dir, len(g), len(w))
			}
			lent[dir], lentCopy[dir] = g, lentCopy[dir][:0]
			for k := range g {
				if !bytes.Equal(g[k], w[k]) {
					t.Fatalf("op %d: direction %d frame %d is % x, reference % x", i, dir, k, g[k], w[k])
				}
				lentCopy[dir] = append(lentCopy[dir], bytes.Clone(g[k]))
			}
		}
		checkLent(0)
		checkLent(1)
		if g, w := got.Stats(), want.stats(); g != w {
			t.Fatalf("stats %+v, reference %+v", g, w)
		}
		if g, w := got.down.source().Int63(), want.down.rng.Int63(); g != w {
			t.Fatalf("down loss stream's next draw %d, reference %d", g, w)
		}
		if g, w := got.up.source().Int63(), want.up.rng.Int63(); g != w {
			t.Fatalf("up loss stream's next draw %d, reference %d", g, w)
		}
	})
}
