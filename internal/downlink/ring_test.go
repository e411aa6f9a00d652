package downlink

import (
	"bytes"
	"testing"
	"time"
)

func TestRecorderSequencesPerChannel(t *testing.T) {
	r, err := NewRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec, ev, err := r.Enqueue(0, []byte{byte(i)}, time.Duration(i))
		if err != nil || ev != nil {
			t.Fatalf("enqueue %d: rec=%+v ev=%v err=%v", i, rec, ev, err)
		}
		if rec.Seq != uint32(i) {
			t.Fatalf("vc0 seq %d, want %d", rec.Seq, i)
		}
	}
	rec, _, err := r.Enqueue(2, []byte("x"), 0)
	if err != nil || rec.Seq != 0 {
		t.Fatalf("vc2 starts at seq %d (err %v), want 0", rec.Seq, err)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestRecorderRejects(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("accepted zero capacity")
	}
	r, _ := NewRecorder(4)
	if _, _, err := r.Enqueue(NumVC, nil, 0); err == nil {
		t.Fatal("accepted out-of-range channel")
	}
	if _, _, err := r.Enqueue(0, make([]byte, MaxPayload+1), 0); err == nil {
		t.Fatal("accepted oversize payload")
	}
}

func TestRecorderCumulativeAck(t *testing.T) {
	r, _ := NewRecorder(16)
	for i := 0; i < 5; i++ {
		r.Enqueue(1, []byte{byte(i)}, 0)
	}
	if n := r.Ack(1, 3); n != 3 {
		t.Fatalf("Ack released %d, want 3", n)
	}
	if n := r.Ack(1, 3); n != 0 {
		t.Fatalf("duplicate Ack released %d, want 0", n)
	}
	pend := r.Pending(1)
	if len(pend) != 2 || pend[0].Seq != 3 {
		t.Fatalf("pending %+v", pend)
	}
	if r.Ack(NumVC, 10) != 0 {
		t.Fatal("Ack on bad channel released records")
	}
}

func TestRecorderEvictsLowestPriorityFirst(t *testing.T) {
	r, _ := NewRecorder(4)
	r.Enqueue(0, []byte("p0"), 0)
	r.Enqueue(3, []byte("bulk0"), 1)
	r.Enqueue(3, []byte("bulk1"), 2)
	r.Enqueue(1, []byte("p1"), 3)

	// Full: the next enqueue must evict vc3's oldest record, never vc0.
	_, ev, err := r.Enqueue(0, []byte("p0b"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.VC != 3 || !bytes.Equal(ev.Payload, []byte("bulk0")) {
		t.Fatalf("evicted %+v, want vc3 bulk0", ev)
	}
	if r.Evicted() != 1 {
		t.Fatalf("Evicted = %d", r.Evicted())
	}

	// Drain vc3 entirely; with only vc0/vc1 left, vc1 is the victim.
	_, ev, _ = r.Enqueue(0, []byte("p0c"), 5)
	if ev == nil || ev.VC != 3 {
		t.Fatalf("second eviction %+v, want vc3", ev)
	}
	_, ev, _ = r.Enqueue(0, []byte("p0d"), 6)
	if ev == nil || ev.VC != 1 {
		t.Fatalf("third eviction %+v, want vc1", ev)
	}
	// Only priority-0 records remain: they are the last to go.
	_, ev, _ = r.Enqueue(0, []byte("p0e"), 7)
	if ev == nil || ev.VC != 0 || !bytes.Equal(ev.Payload, []byte("p0")) {
		t.Fatalf("fourth eviction %+v, want oldest vc0", ev)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
}

func TestRecorderPayloadIsCopied(t *testing.T) {
	r, _ := NewRecorder(4)
	src := []byte("abc")
	r.Enqueue(0, src, 0)
	src[0] = 'X'
	if got := r.Pending(0)[0].Payload; !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("recorder aliases caller payload: % x", got)
	}
}

// TestRecorderEvictedPayloadOutlivesNextEnqueue pins the eviction
// contract: the victim's payload buffer is recycled, but not before the
// Enqueue after the one that reported it.
func TestRecorderEvictedPayloadOutlivesNextEnqueue(t *testing.T) {
	r, _ := NewRecorder(2)
	r.Enqueue(3, []byte("bulk0"), 0)
	r.Enqueue(3, []byte("bulk1"), 1)
	r.Ack(3, 0) // nothing released; the ring stays full
	_, ev, err := r.Enqueue(3, []byte("bulk2"), 2)
	if err != nil || ev == nil {
		t.Fatalf("full ring did not evict: ev=%v err=%v", ev, err)
	}
	held := ev.Payload
	if _, ev2, _ := r.Enqueue(3, []byte("XXXXX"), 3); ev2 == nil || !bytes.Equal(ev2.Payload, []byte("bulk1")) {
		t.Fatalf("second eviction %+v, want bulk1", ev2)
	}
	if !bytes.Equal(held, []byte("bulk0")) {
		t.Fatalf("evicted payload changed by the following Enqueue: %q", held)
	}
	// Acked and evicted buffers are reused, never shared by live records.
	for i := 0; i < 8; i++ {
		r.Enqueue(3, []byte{byte('a' + i)}, time.Duration(4+i))
	}
	if p := r.Pending(3); len(p) != 2 || string(p[0].Payload) != "g" || string(p[1].Payload) != "h" {
		t.Fatalf("pending after reuse: %q, %q", p[0].Payload, p[1].Payload)
	}
}
