package workloads

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"regexp"
	"testing"
)

// The reference kernels are the direct forms of imageJob's SAD scan and
// idsJob's matcher, which the jobs must match for every input: one
// pixel per step, and a pattern compiled from its bytes on every call.

func refRowSAD(s, t []byte) uint64 {
	var sad uint64
	for i := 0; i < imgTemplate; i++ {
		d := int(s[i]) - int(t[i])
		if d < 0 {
			d = -d
		}
		sad += uint64(d)
	}
	return sad
}

// refScan returns the lowest SAD of tmpl over every x of the strip and
// the first x that reaches it.
func refScan(strip []byte, width int, tmpl []byte) (bestSAD uint64, bestX int) {
	bestSAD = ^uint64(0)
	for x := 0; x+imgTemplate <= width; x++ {
		var sad uint64
		for ty := 0; ty < imgTemplate && sad < bestSAD; ty++ {
			rowOff := ty*width + x
			sad += refRowSAD(strip[rowOff:rowOff+imgTemplate], tmpl[ty*imgTemplate:])
		}
		if sad < bestSAD {
			bestSAD, bestX = sad, x
		}
	}
	return bestSAD, bestX
}

func refIDSJob(inputs [][]byte) ([]byte, error) {
	re, err := regexp.Compile(string(inputs[1]))
	if err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint32(nil, uint32(len(re.FindAllIndex(inputs[0], -1)))), nil
}

// cycle returns n bytes repeating pix, or zeros when pix is empty.
func cycle(pix []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; len(pix) > 0 && i < n; i += len(pix) {
		copy(out[i:], pix)
	}
	return out
}

// checkImageMatchesReference builds a template-high strip of the given
// width from stripPix, plants the template at x1 and again at x2, the
// second copy with noise added to one pixel (a tie when noise is 0),
// and fails unless every row SAD and imageJob's answer equal the
// reference's.
func checkImageMatchesReference(t testing.TB, stripPix, tmplPix []byte, width, x1, x2 int, noise byte) {
	t.Helper()
	strip := cycle(stripPix, imgTemplate*width)
	tmpl := cycle(tmplPix, imgTemplate*imgTemplate)
	for i, x := range [...]int{x1, x2} {
		for y := 0; y < imgTemplate; y++ {
			copy(strip[y*width+x:], tmpl[y*imgTemplate:(y+1)*imgTemplate])
		}
		if i == 1 {
			strip[(imgTemplate/2)*width+x+imgTemplate/2] += noise
		}
	}
	for y := 0; y < imgTemplate; y++ {
		trow := tmpl[y*imgTemplate : (y+1)*imgTemplate]
		for x := 0; x+imgTemplate <= width; x++ {
			srow := strip[y*width+x : y*width+x+imgTemplate]
			if got, want := rowSAD((*[imgTemplate]byte)(srow), (*[imgTemplate]byte)(trow)), refRowSAD(srow, trow); got != want {
				t.Fatalf("rowSAD(row %d, x %d) = %d, reference %d\nstrip row % x\ntemplate row % x", y, x, got, want, srow, trow)
			}
		}
	}
	params := make([]byte, imgParamsLen)
	binary.BigEndian.PutUint64(params, uint64(width))
	binary.BigEndian.PutUint64(params[8:], 48)
	out, err := imageJob(nil, [][]byte{strip, params, tmpl})
	if err != nil {
		t.Fatal(err)
	}
	sad, y, x, err := DecodeMatch(out)
	wantSAD, wantX := refScan(strip, width, tmpl)
	if err != nil || sad != wantSAD || y != 48 || x != uint64(wantX) {
		t.Fatalf("imageJob = (%d, %d, %d), %v; reference (%d, 48, %d) (width %d, plants %d and %d, noise %d)",
			sad, y, x, err, wantSAD, wantX, width, x1, x2, noise)
	}
}

func TestImageJobMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 60; n++ {
		width := imgTemplate + rng.Intn(256)
		pix := func() []byte {
			b := make([]byte, rng.Intn(300))
			rng.Read(b)
			return b
		}
		span := width - imgTemplate + 1
		checkImageMatchesReference(t, pix(), pix(), width, rng.Intn(span), rng.Intn(span), byte(rng.Intn(3)))
	}
}

func FuzzRowSADMatchesReference(f *testing.F) {
	f.Add([]byte{0}, []byte{255}, uint16(256), uint16(96), uint16(96), uint8(0))
	f.Add([]byte{255}, []byte{0}, uint16(256), uint16(0), uint16(224), uint8(0))
	f.Add([]byte{0, 255, 1, 254}, []byte{7, 13, 200}, uint16(33), uint16(1), uint16(0), uint8(1))
	f.Add([]byte("strip"), []byte("template"), uint16(100), uint16(60), uint16(20), uint8(255))
	f.Fuzz(func(t *testing.T, stripPix, tmplPix []byte, width, x1, x2 uint16, noise uint8) {
		w := imgTemplate + int(width)%(8*imgTemplate)
		span := w - imgTemplate + 1
		checkImageMatchesReference(t, stripPix, tmplPix, w, int(x1)%span, int(x2)%span, noise)
	})
}

// TestIDSJobMatchesReference strikes the pattern with every single-bit
// flip and a sample of double flips. A struck pattern must count
// exactly what a fresh compile of its bytes counts, or fail as that
// compile fails, so a corrupted replica still disagrees with its peers.
func TestIDSJobMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	packets := make([][]byte, 6)
	for i := range packets {
		packets[i] = make([]byte, 256)
		rng.Read(packets[i])
		copy(packets[i][rng.Intn(200):], []string{"CMD=REBOOT", "cmd=halt", "xxxxxx", "\x00\x00\x7f", "Cmd=Dump", ""}[i])
	}
	pattern := []byte(idsPattern)
	struck := [][]byte{pattern}
	for b := 0; b < 8*len(pattern); b++ {
		p := bytes.Clone(pattern)
		p[b/8] ^= 1 << (b % 8)
		struck = append(struck, p)
	}
	for n := 0; n < 200; n++ {
		p := bytes.Clone(pattern)
		b1, b2 := rng.Intn(8*len(p)), rng.Intn(8*len(p))
		p[b1/8] ^= 1 << (b1 % 8)
		p[b2/8] ^= 1 << (b2 % 8)
		struck = append(struck, p)
	}
	for _, p := range struck {
		for _, pkt := range packets {
			got, err := idsJob(nil, [][]byte{pkt, p})
			want, wantErr := refIDSJob([][]byte{pkt, p})
			if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) ||
				err != nil && errors.Unwrap(err).Error() != wantErr.Error() {
				t.Fatalf("pattern %q: idsJob = %x, %v; reference %x, %v", p, got, err, want, wantErr)
			}
		}
	}
}
