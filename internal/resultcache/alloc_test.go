//go:build !race

// Allocation-regression tests for replaying a cached arm: a warm
// campaign opens the store, whose scan indexes every record without
// allocating per record, and decodes every arm's result in place.
// Excluded under -race: race instrumentation allocates on its own.

package resultcache

import (
	"testing"
	"time"
)

func TestAllocsValueDecode(t *testing.T) {
	type fixed struct {
		Survived bool
		Kills    int
		Mode     uint8
		Rate     float64
		Onset    time.Duration
		Dwell    [4]time.Duration
		Arm      struct {
			Cycles int64
			OK     bool
		}
	}
	var e Enc
	e.Value(fixed{Survived: true, Kills: 3, Mode: 2, Rate: 0.5, Onset: time.Minute, Dwell: [4]time.Duration{1, 2, 3, 4}})
	p := e.Bytes()
	var v fixed
	avg := testing.AllocsPerRun(1000, func() {
		d := NewDec(p)
		d.Value(&v)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("decoding a fixed-width struct in place allocates %.3f objects, want 0", avg)
	}
	if v.Kills != 3 || v.Dwell[3] != 4 {
		t.Fatalf("decoded %+v", v)
	}
}

func TestAllocsStoreOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	for i := int64(0); i < 190; i++ {
		s.Put(testKey(s, i), payloadFor(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		s := openTest(t, dir, "fp1")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 32 {
		t.Errorf("Open+Close of a 190-entry store allocates %.1f objects, want at most 32", avg)
	}
	s = openTest(t, dir, "fp1")
	defer s.Close()
	if st := s.Stats(); st.Entries != 190 {
		t.Fatalf("reopened store indexes %d entries, want 190", st.Entries)
	}
}
