package mem

// NewStorage returns commodity flash of the given size with built-in
// SECDED ECC — per the paper, storage is always inside the reliability
// frontier. It is an ECC DRAM device, backed prefix included, whose
// errors name "storage".
func NewStorage(size uint64) *DRAM {
	d := NewDRAM(size, true)
	d.name = "storage"
	return d
}

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
