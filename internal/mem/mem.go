package mem

import (
	"encoding/binary"
	"fmt"

	"radshield/internal/ecc"
)

// Memory is the raw byte-addressed device interface shared by DRAM
// (flash included) and the Bus. Reads and writes are bounds-checked; ECC
// devices verify and scrub on read.
type Memory interface {
	// Read fills dst with len(dst) bytes starting at addr.
	Read(addr uint64, dst []byte) error
	// Write stores src starting at addr.
	Write(addr uint64, src []byte) error
	// Size returns the device capacity in bytes.
	Size() uint64
}

// UncorrectableError reports a double-bit (or worse) error that SECDED
// detected but could not correct — the hardware analogue is a machine
// check / bus abort.
type UncorrectableError struct {
	Device string
	Addr   uint64
}

func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("mem: uncorrectable ECC error on %s at %#x", e.Device, e.Addr)
}

// BoundsError reports an access outside the device.
type BoundsError struct {
	Device string
	Addr   uint64
	Len    int
	Size   uint64
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("mem: %s access [%#x, %#x) outside device of %d bytes",
		e.Device, e.Addr, e.Addr+uint64(e.Len), e.Size)
}

// Stats counts ECC and fault-injection events on a device.
type Stats struct {
	Corrected     uint64 // single-bit errors fixed by SECDED
	Uncorrectable uint64 // double-bit errors detected (read failed)
	FlipsInjected uint64 // bit flips injected by the fault injector
	Reads         uint64 // Read calls
	Writes        uint64 // Write calls
}

const wordSize = 8 // SECDED granule: 64-bit word + 8 check bits

// DRAM is a byte-addressable volatile memory. With ECC enabled every
// 64-bit word carries SECDED check bits that are verified (and scrubbed)
// on read; without ECC, injected bit flips silently corrupt data — the
// paper's unprotected-DRAM configuration (e.g. the Snapdragon 801).
//
// Only the prefix up to the highest written or struck byte is backed by
// host memory; it grows on Write and FlipBit. Bytes past it read as zero
// and their check bytes are valid zeros (Encode(0) == 0), so a device of
// any nominal Size costs only what its users write. Alloc hands out
// addresses from 0 upward, so allocated data forms exactly that prefix.
//
// NewStorage builds flash on the same machinery; the device's name
// ("dram" or "storage") labels its errors.
type DRAM struct {
	name  string
	size  uint64 // nominal capacity in bytes
	ecc   bool
	data  []byte // backed prefix, a whole number of words
	check []byte // one check byte per backed word; empty when ECC disabled
	stats Stats
	next  uint64 // bump-allocator watermark
}

// NewDRAM returns a DRAM of the given size (rounded up to a multiple of
// 8 bytes) with or without SECDED ECC. Construction allocates no backing
// memory.
func NewDRAM(size uint64, withECC bool) *DRAM {
	return &DRAM{name: "dram", size: (size + wordSize - 1) / wordSize * wordSize, ecc: withECC}
}

// Size returns the capacity in bytes.
func (d *DRAM) Size() uint64 { return d.size }

// Stats returns a snapshot of the device's event counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Alloc reserves n bytes (cache-line aligned) and returns the base
// address. It fails when the device is exhausted. DRAM is the arena the
// EMR runtime allocates datasets, replicas, and output buffers from.
func (d *DRAM) Alloc(n uint64) (uint64, error) {
	const align = 64
	base := (d.next + align - 1) / align * align
	if base > d.size || n > d.size-base {
		return 0, fmt.Errorf("mem: %s exhausted: need %d bytes at %#x, size %d", d.name, n, base, d.size)
	}
	d.next = base + n
	return base, nil
}

// grow extends the backed prefix to cover [0, end), rounded up to a
// whole word. The new bytes and check bytes are zero: a valid encoding.
func (d *DRAM) grow(end uint64) {
	n := (end + wordSize - 1) / wordSize * wordSize
	if n <= uint64(len(d.data)) {
		return
	}
	d.data = append(d.data, make([]byte, n-uint64(len(d.data)))...)
	if d.ecc {
		d.check = append(d.check, make([]byte, n/wordSize-uint64(len(d.check)))...)
	}
}

// Read implements Memory. On an ECC device every touched word is decoded:
// single-bit errors are corrected in place (scrubbing, as DRAM
// controllers do) and counted; double-bit errors abort the read with
// *UncorrectableError.
func (d *DRAM) Read(addr uint64, dst []byte) error {
	if err := d.bounds(addr, len(dst)); err != nil {
		return err
	}
	d.stats.Reads++
	if d.ecc && len(dst) > 0 {
		first := addr / wordSize
		last := (addr + uint64(len(dst)) - 1) / wordSize
		for w := first; w <= last; w++ {
			if err := d.verifyWord(w); err != nil {
				return err
			}
		}
	}
	n := 0
	if addr < uint64(len(d.data)) {
		n = copy(dst, d.data[addr:])
	}
	clear(dst[n:]) // past the backed prefix
	return nil
}

// Write implements Memory. On an ECC device the check bytes of every
// touched word are recomputed (after verifying partially-overwritten
// boundary words so pre-existing corruption is not silently re-encoded).
func (d *DRAM) Write(addr uint64, src []byte) error {
	if err := d.bounds(addr, len(src)); err != nil {
		return err
	}
	d.stats.Writes++
	if len(src) == 0 {
		return nil
	}
	end := addr + uint64(len(src))
	d.grow(end)
	if !d.ecc {
		copy(d.data[addr:], src)
		return nil
	}
	first := addr / wordSize
	last := (end - 1) / wordSize
	// Partial boundary words: verify before read-modify-write.
	if addr%wordSize != 0 {
		if err := d.verifyWord(first); err != nil {
			return err
		}
	}
	if end%wordSize != 0 && last != first {
		if err := d.verifyWord(last); err != nil {
			return err
		}
	}
	copy(d.data[addr:], src)
	for w := first; w <= last; w++ {
		d.check[w] = ecc.Encode(d.word(w))
	}
	return nil
}

// FlipBit inverts one stored bit without touching the ECC code,
// simulating a particle strike on the DRAM array. bit selects within the
// byte (0..7).
func (d *DRAM) FlipBit(addr uint64, bit uint) error {
	if err := d.bounds(addr, 1); err != nil {
		return err
	}
	d.grow(addr + 1)
	d.data[addr] ^= 1 << (bit & 7)
	d.stats.FlipsInjected++
	return nil
}

// word reads the 64-bit little-endian word at index w.
func (d *DRAM) word(w uint64) uint64 {
	return binary.LittleEndian.Uint64(d.data[w*wordSize:])
}

func (d *DRAM) setWord(w, v uint64) {
	binary.LittleEndian.PutUint64(d.data[w*wordSize:], v)
}

// verifyWord decodes word w, scrubbing single-bit errors. Words past the
// backed prefix are zero with a zero code: always valid.
func (d *DRAM) verifyWord(w uint64) error {
	if w >= uint64(len(d.check)) {
		return nil
	}
	data, res := ecc.Decode(d.word(w), d.check[w])
	switch res {
	case ecc.OK:
		return nil
	case ecc.CorrectedData:
		d.setWord(w, data)
		d.stats.Corrected++
		return nil
	case ecc.CorrectedCheck:
		d.check[w] = ecc.Encode(data)
		d.stats.Corrected++
		return nil
	default:
		d.stats.Uncorrectable++
		return &UncorrectableError{Device: d.name, Addr: w * wordSize}
	}
}

func (d *DRAM) bounds(addr uint64, n int) error {
	if n < 0 || addr+uint64(n) > d.size || addr+uint64(n) < addr {
		return &BoundsError{Device: d.name, Addr: addr, Len: n, Size: d.size}
	}
	return nil
}

var _ Memory = (*DRAM)(nil)
