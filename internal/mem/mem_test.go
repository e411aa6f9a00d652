package mem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDRAMReadWriteRoundTrip(t *testing.T) {
	for _, withECC := range []bool{false, true} {
		d := NewDRAM(1024, withECC)
		src := []byte("the quick brown fox jumps over the lazy dog")
		if err := d.Write(3, src); err != nil {
			t.Fatalf("ecc=%v: Write: %v", withECC, err)
		}
		dst := make([]byte, len(src))
		if err := d.Read(3, dst); err != nil {
			t.Fatalf("ecc=%v: Read: %v", withECC, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("ecc=%v: round trip mismatch: %q", withECC, dst)
		}
	}
}

func TestDRAMSizeRoundedToWord(t *testing.T) {
	d := NewDRAM(13, true)
	if d.Size() != 16 {
		t.Fatalf("Size = %d, want 16", d.Size())
	}
}

func TestDRAMBounds(t *testing.T) {
	d := NewDRAM(64, false)
	var be *BoundsError
	if err := d.Read(60, make([]byte, 8)); !errors.As(err, &be) {
		t.Fatalf("out-of-bounds Read error = %v, want BoundsError", err)
	}
	if err := d.Write(64, []byte{1}); !errors.As(err, &be) {
		t.Fatalf("out-of-bounds Write error = %v, want BoundsError", err)
	}
	if be.Error() == "" {
		t.Error("BoundsError message empty")
	}
}

func TestECCCorrectsSingleFlip(t *testing.T) {
	d := NewDRAM(128, true)
	src := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22}
	if err := d.Write(8, src); err != nil {
		t.Fatal(err)
	}
	if err := d.FlipBit(10, 3); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := d.Read(8, dst); err != nil {
		t.Fatalf("Read after single flip: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("single flip not corrected: %x", dst)
	}
	st := d.Stats()
	if st.Corrected != 1 {
		t.Errorf("Corrected = %d, want 1", st.Corrected)
	}
	if st.FlipsInjected != 1 {
		t.Errorf("FlipsInjected = %d, want 1", st.FlipsInjected)
	}
	// Scrubbing: a second read must not re-correct.
	if err := d.Read(8, dst); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Corrected; got != 1 {
		t.Errorf("Corrected after scrub = %d, want still 1", got)
	}
}

func TestECCDetectsDoubleFlip(t *testing.T) {
	d := NewDRAM(128, true)
	if err := d.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	d.FlipBit(0, 0)
	d.FlipBit(1, 5)
	var ue *UncorrectableError
	err := d.Read(0, make([]byte, 8))
	if !errors.As(err, &ue) {
		t.Fatalf("double flip Read error = %v, want UncorrectableError", err)
	}
	if ue.Addr != 0 || ue.Device != "dram" {
		t.Errorf("UncorrectableError fields = %+v", ue)
	}
	if d.Stats().Uncorrectable != 1 {
		t.Errorf("Uncorrectable = %d, want 1", d.Stats().Uncorrectable)
	}
}

func TestNonECCFlipSilentlyCorrupts(t *testing.T) {
	d := NewDRAM(64, false)
	if err := d.Write(0, []byte{0}); err != nil {
		t.Fatal(err)
	}
	d.FlipBit(0, 7)
	dst := make([]byte, 1)
	if err := d.Read(0, dst); err != nil {
		t.Fatalf("non-ECC read errored: %v", err)
	}
	if dst[0] != 0x80 {
		t.Fatalf("flip not visible: %#x, want 0x80", dst[0])
	}
}

func TestECCUnalignedWriteAfterFlipStillCorrects(t *testing.T) {
	// A partial-word write must not bake pre-existing corruption into a
	// fresh ECC code: the boundary word is verified (and scrubbed) first.
	d := NewDRAM(64, true)
	if err := d.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	d.FlipBit(7, 0) // corrupt last byte of word 0
	if err := d.Write(1, []byte{99}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := d.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 99, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(dst, want) {
		t.Fatalf("after unaligned write: %v, want %v", dst, want)
	}
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	d := NewDRAM(256, false)
	a1, err := d.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if a1%64 != 0 || a2%64 != 0 {
		t.Errorf("allocations not 64-byte aligned: %d, %d", a1, a2)
	}
	if a2 <= a1 {
		t.Errorf("allocations overlap: %d then %d", a1, a2)
	}
	if _, err := d.Alloc(1024); err == nil {
		t.Error("oversized Alloc succeeded, want error")
	}
}

// TestAllocRejectsWrappingSize guards the exhaustion check against
// base+n overflowing: a size that wraps must fail, and must not move the
// watermark under later allocations.
func TestAllocRejectsWrappingSize(t *testing.T) {
	d := NewDRAM(256, false)
	first, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(math.MaxUint64 - 50); err == nil {
		t.Fatal("Alloc(MaxUint64-50) succeeded, want exhaustion error")
	}
	next, err := d.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if next < first+100 {
		t.Errorf("Alloc after rejected wrap = %d, overlaps [%d, %d)", next, first, first+100)
	}
}

func TestStorageECCAlwaysOn(t *testing.T) {
	s := NewStorage(1024)
	if err := s.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	s.FlipBit(3, 2)
	dst := make([]byte, 8)
	if err := s.Read(0, dst); err != nil {
		t.Fatalf("storage single flip not absorbed: %v", err)
	}
	if dst[3] != 4 {
		t.Fatalf("storage flip not corrected: %v", dst)
	}
	if s.Stats().Corrected != 1 {
		t.Errorf("Corrected = %d, want 1", s.Stats().Corrected)
	}
}

func TestRegionOverlaps(t *testing.T) {
	cases := []struct {
		a, b Region
		want bool
	}{
		{Region{0, 10}, Region{5, 10}, true},
		{Region{0, 10}, Region{10, 10}, false},
		{Region{10, 10}, Region{0, 10}, false},
		{Region{0, 10}, Region{0, 10}, true},
		{Region{5, 0}, Region{0, 10}, false}, // empty region never overlaps
		{Region{0, 100}, Region{50, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestRegionEnd(t *testing.T) {
	r := Region{Addr: 10, Len: 5}
	if r.End() != 15 {
		t.Errorf("End = %d, want 15", r.End())
	}
}

// Property: for ECC DRAM, any single injected flip in a written range is
// invisible to readers.
func TestPropertyECCMasksAnySingleFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDRAM(512, true)
		src := make([]byte, 64+r.Intn(64))
		r.Read(src)
		off := uint64(r.Intn(32))
		if err := d.Write(off, src); err != nil {
			return false
		}
		flipAt := off + uint64(r.Intn(len(src)))
		d.FlipBit(flipAt, uint(r.Intn(8)))
		dst := make([]byte, len(src))
		if err := d.Read(off, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, src)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
