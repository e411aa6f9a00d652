package downlink

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// loadedRecorder builds a recorder with records across several channels,
// some acknowledged history, and an eviction, so snapshots cover every
// state field.
func loadedRecorder(t testing.TB) *Recorder {
	t.Helper()
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // 12 > capacity: forces evictions
		vc := uint8(i % NumVC)
		payload := []byte{byte(i), byte(i * 3), 0xAB}
		if _, _, err := r.Enqueue(vc, payload, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	r.Ack(0, 1) // acked records leave the ring; cursors stay advanced
	return r
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := loadedRecorder(t)
	page := r.AppendSnapshot(nil)

	fresh, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(page); err != nil {
		t.Fatalf("restore of a page we just snapshotted: %v", err)
	}
	if fresh.Len() != r.Len() || fresh.Evicted() != r.Evicted() {
		t.Fatalf("restored len/evicted = %d/%d, want %d/%d",
			fresh.Len(), fresh.Evicted(), r.Len(), r.Evicted())
	}
	for vc := uint8(0); vc < NumVC; vc++ {
		want, got := r.Pending(vc), fresh.Pending(vc)
		if len(want) != len(got) {
			t.Fatalf("vc %d: %d pending, want %d", vc, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Enqueued != want[i].Enqueued ||
				!bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("vc %d record %d mutated: %+v -> %+v", vc, i, want[i], got[i])
			}
		}
	}
	// Canonical encoding: restore-then-snapshot is byte-identical, and
	// the page lands after what dst already holds.
	prefix := []byte("nvram")
	again := fresh.AppendSnapshot(prefix)
	if !bytes.Equal(again[:len(prefix)], prefix) || !bytes.Equal(again[len(prefix):], page) {
		t.Fatal("restore-then-snapshot is not byte-identical")
	}
	// Sequence cursors survive: a new enqueue must not reuse a seq.
	rec, _, err := fresh.Enqueue(0, []byte("next"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq < 1 {
		t.Fatalf("post-restore seq %d reuses acked history", rec.Seq)
	}
}

func TestRestoreEmptySnapshot(t *testing.T) {
	empty, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	page := empty.AppendSnapshot(nil)
	r := loadedRecorder(t)
	if err := r.Restore(page); err != nil {
		t.Fatalf("restore of an empty page: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("recorder holds %d records after restoring an empty page", r.Len())
	}
}

// TestRestoreCorruptPageDegradesToEmpty is the recorder's core safety
// contract: any damaged page — torn, bit-flipped, truncated, foreign —
// is detected and the recorder left verifiably empty. Wrong replay of a
// mission record is worse than no replay.
func TestRestoreCorruptPageDegradesToEmpty(t *testing.T) {
	good := loadedRecorder(t).AppendSnapshot(nil)
	rng := rand.New(rand.NewSource(5))
	pages := map[string][]byte{
		"torn":      CorruptSnapshot(good, rng, "torn"),
		"bitflip":   CorruptSnapshot(good, rng, "bitflip"),
		"truncate":  good[:len(good)-3],
		"empty":     {},
		"foreign":   append([]byte("RSRC0001"), good[8:]...),
		"badlength": append(append([]byte(nil), good[:8]...), 0xFF, 0xFF, 0xFF, 0xFF),
	}
	for name, page := range pages {
		if bytes.Equal(page, good) {
			t.Fatalf("%s: corruption was a no-op", name)
		}
		r := loadedRecorder(t)
		err := r.Restore(page)
		if err == nil {
			t.Fatalf("%s: corrupt page accepted", name)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrSnapshotCorrupt", name, err)
		}
		if r.Len() != 0 || r.Evicted() != 0 {
			t.Fatalf("%s: rejected page left len=%d evicted=%d", name, r.Len(), r.Evicted())
		}
		fresh, _ := NewRecorder(8)
		if !bytes.Equal(r.AppendSnapshot(nil), fresh.AppendSnapshot(nil)) {
			t.Fatalf("%s: recorder not verifiably empty after rejection", name)
		}
	}
}

// TestRestoreRejectsOverCapacityPage: a page from a larger recorder must
// not overfill a smaller one — capacity is a boot-time invariant.
func TestRestoreRejectsOverCapacityPage(t *testing.T) {
	big, err := NewRecorder(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := big.Enqueue(0, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	small, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(big.AppendSnapshot(nil)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("over-capacity page: err = %v, want ErrSnapshotCorrupt", err)
	}
	if small.Len() != 0 {
		t.Fatal("over-capacity page left records behind")
	}
}

func TestCorruptSnapshotModesDeterministic(t *testing.T) {
	good := loadedRecorder(t).AppendSnapshot(nil)
	for _, mode := range []string{"torn", "bitflip", "truncate"} {
		a := CorruptSnapshot(good, rand.New(rand.NewSource(9)), mode)
		b := CorruptSnapshot(good, rand.New(rand.NewSource(9)), mode)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s damage not deterministic for equal seeds", mode)
		}
	}
	if got := CorruptSnapshot(nil, rand.New(rand.NewSource(9)), "torn"); len(got) != 0 {
		t.Fatalf("empty page grew to %d bytes", len(got))
	}
}

// FuzzRecorderSnapshot throws arbitrary bytes at the NVRAM trust
// boundary. Whatever the flash hands back after an OS-level fault, the
// recorder must never panic, never hold state from a rejected page, and
// only accept pages that re-encode byte-identically (no stale or
// invented frames can hide in a non-canonical encoding).
func FuzzRecorderSnapshot(f *testing.F) {
	r, err := NewRecorder(8)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := r.Enqueue(uint8(i%NumVC), []byte{byte(i), 0x5A}, time.Duration(i)*time.Millisecond); err != nil {
			f.Fatal(err)
		}
	}
	good := r.AppendSnapshot(nil)
	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped) // bit-flipped payload
	foreign := append([]byte(nil), good...)
	copy(foreign, "RSRC0001") // resultcache-record magic, wrong surface
	f.Add(foreign)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := NewRecorder(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Restore(data); err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrSnapshotCorrupt", err)
			}
			fresh, _ := NewRecorder(8)
			if rec.Len() != 0 || !bytes.Equal(rec.AppendSnapshot(nil), fresh.AppendSnapshot(nil)) {
				t.Fatal("rejected page left the recorder non-empty")
			}
			return
		}
		if !bytes.Equal(rec.AppendSnapshot(nil), data) {
			t.Fatalf("accepted page is not canonical:\n in  % x\n out % x", data, rec.AppendSnapshot(nil))
		}
	})
}
