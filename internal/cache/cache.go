package cache

import (
	"fmt"

	"radshield/internal/mem"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Stats counts cache events. Flush counts feed the EMR cost model.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	LinesFlushed  uint64
	FlipsInjected uint64
	// FlipsAbsorbed counts strikes corrected in hardware on an
	// ECC-protected cache (see SetECCProtected).
	FlipsAbsorbed uint64
}

type line struct {
	valid   bool
	tag     uint64 // line number (addr / LineSize)
	data    [LineSize]byte
	lastUse uint64
}

// Cache is a set-associative read cache over a backing Memory: stores go
// to the backing device directly, so a line holds a clean copy until an
// upset strikes it. A Cache belongs to one EMR runtime, which is built
// and run inside one trial, so it takes no lock: calls must not
// overlap.
type Cache struct {
	backing mem.Memory
	sets    int
	ways    int
	lines   []line // sets × ways
	useTick uint64
	stats   Stats
	ecc     bool
	// fill stages a line fetched from backing. A local buffer handed to
	// the Memory interface would escape to the heap on every miss.
	fill [LineSize]byte
}

// SetECCProtected marks the cache array as SECDED-protected (some SoCs
// ship ECC in their last-level cache though never in the pipelines,
// paper §3.2). On a protected cache, injected single-bit strikes are
// corrected in hardware and never reach readers.
func (c *Cache) SetECCProtected(on bool) {
	c.ecc = on
}

// New returns a cache with the given geometry over backing. sets and ways
// must be positive; sets must be a power of two so the set index is a
// simple mask.
func New(backing mem.Memory, sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 {
		//radlint:allow nopanic cache geometry is fixed at machine construction; a bad shape is a build bug
		panic(fmt.Sprintf("cache: invalid geometry %d sets × %d ways", sets, ways))
	}
	if sets&(sets-1) != 0 {
		//radlint:allow nopanic cache geometry is fixed at machine construction; a bad shape is a build bug
		panic(fmt.Sprintf("cache: sets (%d) must be a power of two", sets))
	}
	return &Cache{
		backing: backing,
		sets:    sets,
		ways:    ways,
		lines:   make([]line, sets*ways),
	}
}

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats {
	return c.stats
}

// Read fills dst from addr, reading through the cache: lines already
// present are served from the (unprotected, possibly upset) cached copy;
// missing lines are fetched from backing memory and installed.
func (c *Cache) Read(addr uint64, dst []byte) error {
	n := uint64(len(dst))
	if n == 0 {
		return nil
	}
	for off := uint64(0); off < n; {
		lineNo := (addr + off) / LineSize
		inLine := (addr + off) % LineSize
		chunk := LineSize - inLine
		if chunk > n-off {
			chunk = n - off
		}
		ln, err := c.lookupOrFetch(lineNo)
		if err != nil {
			return err
		}
		copy(dst[off:off+chunk], ln.data[inLine:inLine+chunk])
		off += chunk
	}
	return nil
}

// FlushRange invalidates every cached line overlapping [addr, addr+n) and
// returns the number of lines flushed (the EMR cost model charges per
// line). The backing copy is authoritative, so flushing discards any
// upsets the cached copies had absorbed.
func (c *Cache) FlushRange(addr, n uint64) int {
	if n == 0 {
		return 0
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	flushed := 0
	for lineNo := first; lineNo <= last; lineNo++ {
		if ln := c.peek(lineNo); ln != nil {
			ln.valid = false
			flushed++
		}
	}
	c.stats.LinesFlushed += uint64(flushed)
	return flushed
}

// FlushAll invalidates the whole cache and returns the number of valid
// lines discarded.
func (c *Cache) FlushAll() int {
	flushed := 0
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].valid = false
			flushed++
		}
	}
	c.stats.LinesFlushed += uint64(flushed)
	return flushed
}

// FlipBit flips bit (0..7) of the cached byte holding addr, if that line
// is currently resident. It reports whether a resident line was struck.
// The backing memory is untouched: this models an upset in the cache
// array itself.
func (c *Cache) FlipBit(addr uint64, bit uint) bool {
	ln := c.peek(addr / LineSize)
	if ln == nil {
		return false
	}
	if c.ecc {
		// The strike lands but per-line SECDED corrects it before any
		// reader consumes the word.
		c.stats.FlipsAbsorbed++
		return true
	}
	ln.data[addr%LineSize] ^= 1 << (bit & 7)
	c.stats.FlipsInjected++
	return true
}

// set returns the slice of ways for the set holding lineNo.
func (c *Cache) set(lineNo uint64) []line {
	idx := int(lineNo) & (c.sets - 1)
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// peek returns the resident line for lineNo, or nil, without fetching.
func (c *Cache) peek(lineNo uint64) *line {
	set := c.set(lineNo)
	for i := range set {
		if set[i].valid && set[i].tag == lineNo {
			return &set[i]
		}
	}
	return nil
}

// lookupOrFetch returns the line for lineNo, fetching from backing on a
// miss and evicting the LRU way if the set is full.
func (c *Cache) lookupOrFetch(lineNo uint64) (*line, error) {
	c.useTick++
	if ln := c.peek(lineNo); ln != nil {
		c.stats.Hits++
		ln.lastUse = c.useTick
		return ln, nil
	}
	c.stats.Misses++
	set := c.set(lineNo)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	if victim.valid {
		c.stats.Evictions++
	}
	base := lineNo * LineSize
	// Clamp the fetch to the device: the final partial line reads short.
	span := uint64(LineSize)
	if base+span > c.backing.Size() {
		if base >= c.backing.Size() {
			return nil, &mem.BoundsError{Device: "cache-fetch", Addr: base, Len: LineSize, Size: c.backing.Size()}
		}
		span = c.backing.Size() - base
		c.fill = [LineSize]byte{}
	}
	// Stage the fetch, so a failed read leaves the victim line intact.
	if err := c.backing.Read(base, c.fill[:span]); err != nil {
		return nil, err
	}
	victim.valid = true
	victim.tag = lineNo
	victim.data = c.fill
	victim.lastUse = c.useTick
	return victim, nil
}
