package ild

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"time"

	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

func TestModelRoundTrip(t *testing.T) {
	_, det := trainedDetector(t, 71)
	blob := det.Export()
	if len(blob) != SizeForCores(4) {
		t.Fatalf("blob size %d, want %d", len(blob), SizeForCores(4))
	}
	restored, err := RestoreDetector(blob, det.Config())
	if err != nil {
		t.Fatal(err)
	}
	orig, back := det.Model(), restored.Model()
	if orig.Intercept != back.Intercept {
		t.Fatalf("intercept %v vs %v", orig.Intercept, back.Intercept)
	}
	for i := range orig.Weights {
		if orig.Weights[i] != back.Weights[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func TestRestoreDetectorRejectsBadConfig(t *testing.T) {
	// A valid blob with an upset flight config (e.g. a zeroed parameter
	// store) must be refused with an error, not crash the monitor.
	_, det := trainedDetector(t, 74)
	blob := det.Export()
	bad := det.Config()
	bad.ThresholdA = 0
	if _, err := RestoreDetector(blob, bad); err == nil {
		t.Fatal("RestoreDetector accepted a zero detection threshold")
	}
}

func TestRestoredDetectorStillDetects(t *testing.T) {
	m, det := trainedDetector(t, 72)
	restored, err := RestoreDetector(det.Export(), det.Config())
	if err != nil {
		t.Fatal(err)
	}
	m.InjectSEL(0.08)
	rng := rand.New(rand.NewSource(73))
	detected := false
	m.RunTrace(trace.Quiescent(rng, 15*time.Second, 10*time.Second), func(tel machine.Telemetry) {
		if restored.Observe(tel) {
			detected = true
		}
	})
	if !detected {
		t.Fatal("restored detector missed the SEL")
	}
}

func TestDecodeModelRejectsCorruption(t *testing.T) {
	_, det := trainedDetector(t, 74)
	blob := det.Export()

	cases := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:10] },
		"flipped bit":  func(b []byte) []byte { c := append([]byte(nil), b...); c[20] ^= 4; return c },
		"bad magic":    func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"crc clobber":  func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 1; return c },
		"length lying": func(b []byte) []byte { c := append([]byte(nil), b...); c[15] = 99; return c },
	}
	for name, corrupt := range cases {
		if _, err := DecodeModel(corrupt(blob)); !errors.Is(err, ErrBadModelBlob) {
			t.Errorf("%s: err = %v, want ErrBadModelBlob", name, err)
		}
	}
}

func TestDecodeModelRejectsNonFinite(t *testing.T) {
	bad := EncodeModel(&linmodel.Model{Weights: []float64{1, math.NaN()}, Intercept: 0.5})
	if _, err := DecodeModel(bad); !errors.Is(err, ErrBadModelBlob) {
		t.Fatalf("NaN model accepted: %v", err)
	}
	inf := EncodeModel(&linmodel.Model{Weights: []float64{1}, Intercept: math.Inf(1)})
	if _, err := DecodeModel(inf); !errors.Is(err, ErrBadModelBlob) {
		t.Fatalf("Inf model accepted: %v", err)
	}
}

// FuzzDecodeModel feeds DecodeModel arbitrary uplink bytes. With sealed
// set, the fuzzer's bytes get a valid CRC appended, so the parsing past
// the checksum is explored too. DecodeModel must never panic; a
// rejected blob must wrap ErrBadModelBlob; an accepted one must hold at
// most 65,536 finite coefficients and re-encode to exactly its bytes.
func FuzzDecodeModel(f *testing.F) {
	f.Add(EncodeModel(&linmodel.Model{Weights: []float64{0.25, -1e-9, 3}, Intercept: 1.55}), false)
	f.Add(EncodeModel(&linmodel.Model{Intercept: math.Copysign(0, -1)}), false)
	f.Add([]byte(persistMagic+"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), true)
	f.Add([]byte(persistMagic+"\x20\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), true)
	f.Add([]byte(persistMagic+"\x00\x00\x00\x00\x00\x01\x00\x01\x7f\xf0\x00\x00\x00\x00\x00\x00"), true)
	f.Fuzz(func(t *testing.T, blob []byte, sealed bool) {
		if sealed {
			blob = binary.BigEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
		}
		m, err := DecodeModel(blob)
		if err != nil {
			if !errors.Is(err, ErrBadModelBlob) {
				t.Fatalf("rejection %v does not wrap ErrBadModelBlob", err)
			}
			return
		}
		if len(m.Weights) > 1<<16 {
			t.Fatalf("accepted %d weights, over the 65,536 limit", len(m.Weights))
		}
		for _, v := range append([]float64{m.Intercept}, m.Weights...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite coefficient %v", v)
			}
		}
		if again := EncodeModel(m); !bytes.Equal(again, blob) {
			t.Fatalf("re-encoded blob differs\n got %x\nwant %x", again, blob)
		}
	})
}
