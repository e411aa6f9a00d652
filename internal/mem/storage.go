package mem

import "radshield/internal/ecc"

// SectorSize is the IO accounting granule for Storage. Disk read/write IO
// counts (in sectors) are among the OS-visible metrics ILD feeds its
// current-draw model (paper Table 1).
const SectorSize = 512

// Storage models commodity flash with built-in SECDED ECC — per the
// paper, storage is always inside the reliability frontier. It reuses the
// DRAM word/ECC machinery, backed prefix included, and additionally counts
// sector-granularity IO operations for the performance-counter model.
type Storage struct {
	dram        *DRAM // always with ECC
	readSector  uint64
	writeSector uint64
}

// NewStorage returns a Storage device of the given size.
func NewStorage(size uint64) *Storage {
	return &Storage{dram: NewDRAM(size, true)}
}

// Size returns the capacity in bytes.
func (s *Storage) Size() uint64 { return s.dram.Size() }

// Stats returns the ECC/flip counters of the underlying array.
func (s *Storage) Stats() Stats { return s.dram.Stats() }

// ReadSectors and WriteSectors report cumulative sector IO counts.
func (s *Storage) ReadSectors() uint64  { return s.readSector }
func (s *Storage) WriteSectors() uint64 { return s.writeSector }

// Alloc reserves n bytes and returns the base address.
func (s *Storage) Alloc(n uint64) (uint64, error) { return s.dram.Alloc(n) }

// AllocBytes allocates space for src, copies it in, and returns the base
// address.
func (s *Storage) AllocBytes(src []byte) (uint64, error) { return s.dram.AllocBytes(src) }

// Read implements Memory, counting the sectors touched.
func (s *Storage) Read(addr uint64, dst []byte) error {
	if err := s.dram.Read(addr, dst); err != nil {
		return err
	}
	s.readSector += sectors(addr, len(dst))
	return nil
}

// Write implements Memory, counting the sectors touched.
func (s *Storage) Write(addr uint64, src []byte) error {
	if err := s.dram.Write(addr, src); err != nil {
		return err
	}
	s.writeSector += sectors(addr, len(src))
	return nil
}

// FlipBit injects a bit flip into the flash array (it will be corrected
// by SECDED on the next read unless a second flip lands in the same word).
func (s *Storage) FlipBit(addr uint64, bit uint) error { return s.dram.FlipBit(addr, bit) }

// sectors returns how many SectorSize-aligned sectors [addr, addr+n)
// touches.
func sectors(addr uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	first := addr / SectorSize
	last := (addr + uint64(n) - 1) / SectorSize
	return last - first + 1
}

var _ Memory = (*Storage)(nil)

// Region names a contiguous [Addr, Addr+Len) span of one device. It is
// the unit EMR datasets are declared in terms of.
type Region struct {
	Addr uint64
	Len  uint64
}

// End returns the exclusive upper bound of the region.
func (r Region) End() uint64 { return r.Addr + r.Len }

// Overlaps reports whether two regions share any byte.
func (r Region) Overlaps(o Region) bool {
	return r.Addr < o.End() && o.Addr < r.End() && r.Len > 0 && o.Len > 0
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Addr && addr < r.End() }

// WordsWithECC is a helper for tests: it encodes src into an ECC word
// sequence, useful for asserting codec integration.
func WordsWithECC(src []byte) []ecc.Word {
	n := (len(src) + wordSize - 1) / wordSize
	words := make([]ecc.Word, n)
	for w := 0; w < n; w++ {
		var v uint64
		for i := 0; i < wordSize; i++ {
			idx := w*wordSize + i
			if idx < len(src) {
				v |= uint64(src[idx]) << (8 * uint(i))
			}
		}
		words[w] = ecc.NewWord(v)
	}
	return words
}
