package mem

// Storage models commodity flash with built-in SECDED ECC — per the
// paper, storage is always inside the reliability frontier. It reuses the
// DRAM word/ECC machinery, backed prefix included.
type Storage struct {
	dram *DRAM // always with ECC
}

// NewStorage returns a Storage device of the given size.
func NewStorage(size uint64) *Storage {
	return &Storage{dram: NewDRAM(size, true)}
}

// Size returns the capacity in bytes.
func (s *Storage) Size() uint64 { return s.dram.Size() }

// Alloc reserves n bytes and returns the base address.
func (s *Storage) Alloc(n uint64) (uint64, error) { return s.dram.Alloc(n) }

// Read implements Memory.
func (s *Storage) Read(addr uint64, dst []byte) error { return s.dram.Read(addr, dst) }

// Write implements Memory.
func (s *Storage) Write(addr uint64, src []byte) error { return s.dram.Write(addr, src) }

// FlipBit injects a bit flip into the flash array (it will be corrected
// by SECDED on the next read unless a second flip lands in the same word).
func (s *Storage) FlipBit(addr uint64, bit uint) error { return s.dram.FlipBit(addr, bit) }

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
