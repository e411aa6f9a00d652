package mem

import (
	"errors"
	"strings"
	"testing"
)

func TestStorageAllocators(t *testing.T) {
	s := NewStorage(4096)
	a1, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Alloc(9)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+100 {
		t.Fatalf("allocations overlap: %d then %d", a1, a2)
	}
	if err := s.Write(a2, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if err := s.Read(a2, buf); err != nil || string(buf) != "persisted" {
		t.Fatalf("round trip = %q, %v", buf, err)
	}
	if _, err := s.Alloc(1 << 20); err == nil {
		t.Fatal("oversized storage Alloc succeeded")
	}
}

func TestUncorrectableErrorMessage(t *testing.T) {
	e := &UncorrectableError{Device: "dram", Addr: 0x40}
	if msg := e.Error(); !strings.Contains(msg, "dram") || !strings.Contains(msg, "0x40") {
		t.Fatalf("message = %q", msg)
	}
}

func TestFlipBitBounds(t *testing.T) {
	d := NewDRAM(64, false)
	if err := d.FlipBit(1000, 0); err == nil {
		t.Fatal("out-of-bounds FlipBit succeeded")
	}
	s := NewStorage(64)
	if err := s.FlipBit(1000, 0); err == nil {
		t.Fatal("out-of-bounds storage FlipBit succeeded")
	}
}

func TestStorageBoundsErrors(t *testing.T) {
	s := NewStorage(64)
	if err := s.Read(60, make([]byte, 16)); err == nil {
		t.Fatal("out-of-bounds storage Read succeeded")
	}
	if err := s.Write(60, make([]byte, 16)); err == nil {
		t.Fatal("out-of-bounds storage Write succeeded")
	}
}

func TestBusWriteOutOfRange(t *testing.T) {
	b := NewBus()
	b.Map(NewDRAM(64, false))
	if err := b.Write(1000, []byte{1}); err == nil {
		t.Fatal("out-of-range bus Write succeeded")
	}
	if err := b.FlipBit(1000, 0); err == nil {
		t.Fatal("out-of-range bus FlipBit succeeded")
	}
}

func TestBusFlipBitUnsupportedDevice(t *testing.T) {
	b := NewBus()
	b.Map(&noFlipMem{size: 64})
	if err := b.FlipBit(0, 0); err == nil {
		t.Fatal("FlipBit on non-flippable device succeeded")
	}
}

type noFlipMem struct{ size uint64 }

func (m *noFlipMem) Read(addr uint64, dst []byte) error  { return nil }
func (m *noFlipMem) Write(addr uint64, src []byte) error { return nil }
func (m *noFlipMem) Size() uint64                        { return m.size }

// TestStorageErrorsNameStorage checks that flash errors name the flash
// device, not the DRAM machinery under it.
func TestStorageErrorsNameStorage(t *testing.T) {
	s := NewStorage(64)
	var be *BoundsError
	if err := s.Read(60, make([]byte, 16)); !errors.As(err, &be) || be.Device != "storage" {
		t.Errorf("out-of-bounds storage Read error = %v, want a storage BoundsError", err)
	}
	if err := s.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	s.FlipBit(0, 0)
	s.FlipBit(1, 5)
	var ue *UncorrectableError
	if err := s.Read(0, make([]byte, 8)); !errors.As(err, &ue) || ue.Device != "storage" || ue.Addr != 0 {
		t.Errorf("double-flip storage Read error = %v, want a storage UncorrectableError at 0x0", err)
	}
	if _, err := s.Alloc(128); err == nil || !strings.Contains(err.Error(), "storage exhausted") {
		t.Errorf("oversized storage Alloc error = %v, want storage exhausted", err)
	}
}
