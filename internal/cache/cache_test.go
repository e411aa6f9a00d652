package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"radshield/internal/mem"
)

func newBacked(t *testing.T, size uint64, sets, ways int) (*mem.DRAM, *Cache) {
	t.Helper()
	d := mem.NewDRAM(size, false)
	return d, New(d, sets, ways)
}

func TestReadThroughAndHit(t *testing.T) {
	d, c := newBacked(t, 4096, 8, 2)
	src := []byte("radshield cache line contents for the read-through test!")
	if err := d.Write(100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := c.Read(100, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("read-through mismatch: %q", dst)
	}
	st := c.Stats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("first read stats = %+v, want only misses", st)
	}
	if err := c.Read(100, dst); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Hits == 0 {
		t.Fatalf("second read produced no hits: %+v", st)
	}
}

func TestCachedReadIgnoresBackingChange(t *testing.T) {
	// The defining property of a cache: once resident, reads come from the
	// cached copy, not the backing store.
	d, c := newBacked(t, 4096, 8, 2)
	d.Write(0, []byte{1})
	buf := make([]byte, 1)
	c.Read(0, buf)
	d.Write(0, []byte{2}) // direct write, bypassing the cache
	c.Read(0, buf)
	if buf[0] != 1 {
		t.Fatalf("read = %d, want stale cached 1", buf[0])
	}
}

func TestFlipBitCorruptsSharedLine(t *testing.T) {
	// The EMR hazard: two readers of the same line both see the upset.
	d, c := newBacked(t, 4096, 8, 2)
	d.Write(0, []byte{0x00})
	buf := make([]byte, 1)
	c.Read(0, buf) // reader A installs the line
	if !c.FlipBit(0, 4) {
		t.Fatal("FlipBit missed a resident line")
	}
	c.Read(0, buf) // reader B
	if buf[0] != 0x10 {
		t.Fatalf("reader B sees %#x, want corrupted 0x10", buf[0])
	}
	// Backing store is clean: flushing removes the corruption.
	if n := c.FlushRange(0, 1); n != 1 {
		t.Fatalf("FlushRange flushed %d lines, want 1", n)
	}
	c.Read(0, buf)
	if buf[0] != 0x00 {
		t.Fatalf("post-flush read = %#x, want clean 0x00", buf[0])
	}
}

func TestFlipBitOnNonResidentLine(t *testing.T) {
	_, c := newBacked(t, 4096, 8, 2)
	if c.FlipBit(128, 0) {
		t.Fatal("FlipBit claimed to strike a non-resident line")
	}
	if c.Stats().FlipsInjected != 0 {
		t.Fatal("FlipsInjected counted a miss")
	}
}

func TestFlushRangeCountsOnlyResident(t *testing.T) {
	d, c := newBacked(t, 4096, 8, 2)
	d.Write(0, make([]byte, 256))
	buf := make([]byte, 128)
	c.Read(0, buf) // lines 0,1 resident
	if n := c.FlushRange(0, 256); n != 2 {
		t.Fatalf("FlushRange = %d, want 2", n)
	}
	if n := c.FlushAll(); n != 0 {
		t.Fatalf("%d lines still resident after the flush", n)
	}
}

func TestFlushAll(t *testing.T) {
	_, c := newBacked(t, 4096, 8, 2)
	buf := make([]byte, 64)
	c.Read(0, buf)
	c.Read(1024, buf)
	if n := c.FlushAll(); n != 2 {
		t.Fatalf("FlushAll = %d, want 2", n)
	}
	if n := c.FlushAll(); n != 0 {
		t.Fatalf("second FlushAll = %d, want 0", n)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set × 2 ways: three distinct lines mapping to the same set must
	// evict the least recently used.
	d := mem.NewDRAM(4096, false)
	c := New(d, 1, 2)
	buf := make([]byte, 1)
	c.Read(0, buf)   // line 0
	c.Read(64, buf)  // line 1
	c.Read(0, buf)   // touch line 0 (now MRU)
	c.Read(128, buf) // line 2 evicts line 1
	if c.peek(0) == nil {
		t.Error("line 0 (MRU) was evicted")
	}
	if c.peek(1) != nil {
		t.Error("line 1 (LRU) survived eviction")
	}
	if c.peek(2) == nil {
		t.Error("line 2 not installed")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestUncorrectableBackingErrorPropagates(t *testing.T) {
	d := mem.NewDRAM(4096, true)
	c := New(d, 8, 2)
	d.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.FlipBit(0, 0)
	d.FlipBit(0, 1)
	err := c.Read(0, make([]byte, 8))
	if err == nil {
		t.Fatal("cache fetch of uncorrectable word succeeded")
	}
}

func TestReadPastDeviceFails(t *testing.T) {
	_, c := newBacked(t, 128, 8, 2)
	if err := c.Read(4096, make([]byte, 1)); err == nil {
		t.Fatal("read far past device succeeded")
	}
}

func TestPartialFinalLine(t *testing.T) {
	// Device sizes that are not line multiples must still be readable up
	// to the last byte.
	d := mem.NewDRAM(96, false) // 1.5 lines
	c := New(d, 2, 1)
	d.Write(90, []byte{7})
	buf := make([]byte, 1)
	if err := c.Read(90, buf); err != nil {
		t.Fatalf("partial-line read: %v", err)
	}
	if buf[0] != 7 {
		t.Fatalf("partial-line read = %d, want 7", buf[0])
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	d := mem.NewDRAM(64, false)
	for _, g := range []struct{ sets, ways int }{{0, 1}, {1, 0}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g.sets, g.ways)
				}
			}()
			New(d, g.sets, g.ways)
		}()
	}
}

// Property: reading any range through the cache equals reading it from
// clean backing memory, regardless of access order.
func TestPropertyCacheTransparency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := mem.NewDRAM(8192, false)
		src := make([]byte, 8192)
		r.Read(src)
		d.Write(0, src)
		c := New(d, 4, 2) // tiny cache: lots of evictions
		for i := 0; i < 50; i++ {
			n := r.Intn(300) + 1
			off := uint64(r.Intn(8192 - n))
			buf := make([]byte, n)
			if err := c.Read(off, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, src[off:off+uint64(n)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCachedRead(b *testing.B) {
	d := mem.NewDRAM(1<<20, false)
	c := New(d, 256, 8)
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Read(uint64(i%1024)*64, buf)
	}
}

// ECC-protected mode: the cache+ECC interaction (absorbed strikes,
// protection toggling) is cache behaviour, so its tests live here
// rather than in a separate file that suggested a different package.
func TestECCProtectedCacheAbsorbsFlips(t *testing.T) {
	d := mem.NewDRAM(4096, false)
	d.Write(0, []byte{0x5A})
	c := New(d, 8, 2)
	c.SetECCProtected(true)
	buf := make([]byte, 1)
	c.Read(0, buf)
	if !c.FlipBit(0, 3) {
		t.Fatal("strike on resident line not acknowledged")
	}
	c.Read(0, buf)
	if buf[0] != 0x5A {
		t.Fatalf("ECC cache leaked corruption: %#x", buf[0])
	}
	st := c.Stats()
	if st.FlipsAbsorbed != 1 || st.FlipsInjected != 0 {
		t.Fatalf("stats = %+v, want 1 absorbed, 0 injected", st)
	}
	// Non-resident strikes still miss.
	if c.FlipBit(2048, 0) {
		t.Fatal("non-resident strike acknowledged on ECC cache")
	}
	// Turning protection off restores the raw behaviour.
	c.SetECCProtected(false)
	if !c.FlipBit(0, 3) {
		t.Fatal("unprotected strike missed")
	}
	c.Read(0, buf)
	if buf[0] == 0x5A {
		t.Fatal("unprotected strike had no effect")
	}
}
