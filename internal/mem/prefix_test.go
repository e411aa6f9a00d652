package mem

import (
	"bytes"
	"testing"
)

// TestBackedPrefix pins the rules for memory past the highest written or
// struck byte: it reads as zero, verifies as valid ECC words, and joins
// the backed prefix, a whole number of words, on the first write or flip.
func TestBackedPrefix(t *testing.T) {
	type op func(d *DRAM) error
	write := func(addr uint64, s string) op {
		return func(d *DRAM) error { return d.Write(addr, []byte(s)) }
	}
	flip := func(addr uint64, bit uint) op {
		return func(d *DRAM) error { return d.FlipBit(addr, bit) }
	}
	cases := []struct {
		name          string
		ecc           bool
		ops           []op
		readAt        uint64
		want          string
		wantBacked    uint64
		wantCorrected uint64
	}{
		{"read past prefix zeroes dirty dst", false,
			[]op{write(0, "abc")}, 64, "\x00\x00\x00\x00\x00\x00\x00\x00", 8, 0},
		{"read across prefix edge", false,
			[]op{write(0, "abcdefgh")}, 4, "efgh\x00\x00\x00\x00", 8, 0},
		{"ECC read of unbacked words", true,
			nil, 100, "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", 0, 0},
		{"partial-word write straddling prefix edge", true,
			[]op{write(0, "abcdefghij"), write(14, "WXYZ")}, 8, "ij\x00\x00\x00\x00WXYZ\x00\x00\x00\x00\x00\x00", 24, 0},
		{"ECC flip on unbacked byte corrected by read", true,
			[]op{flip(200, 3)}, 200, "\x00\x00\x00\x00\x00\x00\x00\x00", 208, 1},
		{"raw flip on unbacked byte is visible", false,
			[]op{flip(200, 3)}, 200, "\x08\x00\x00\x00\x00\x00\x00\x00", 208, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDRAM(64<<20, c.ecc)
			for _, o := range c.ops {
				if err := o(d); err != nil {
					t.Fatal(err)
				}
			}
			dst := bytes.Repeat([]byte{0xff}, len(c.want))
			if err := d.Read(c.readAt, dst); err != nil {
				t.Fatalf("Read(%d): %v", c.readAt, err)
			}
			if string(dst) != c.want {
				t.Errorf("Read(%d) = %q, want %q", c.readAt, dst, c.want)
			}
			if got := uint64(len(d.data)); got != c.wantBacked {
				t.Errorf("backed prefix = %d bytes, want %d", got, c.wantBacked)
			}
			if c.ecc && uint64(len(d.check))*wordSize != uint64(len(d.data)) {
				t.Errorf("check bytes cover %d words, data %d bytes", len(d.check), len(d.data))
			}
			if got := d.Stats().Corrected; got != c.wantCorrected {
				t.Errorf("Corrected = %d, want %d", got, c.wantCorrected)
			}
			if d.Size() != 64<<20 {
				t.Errorf("Size = %d, want the nominal %d", d.Size(), 64<<20)
			}
		})
	}
}
