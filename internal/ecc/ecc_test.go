package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	for _, data := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEFCAFEF00D, 1 << 63} {
		got, res := Decode(data, Encode(data))
		if res != OK || got != data {
			t.Errorf("Decode(Encode(%#x)) = %#x, %v; want clean round-trip", data, got, res)
		}
	}
}

func TestSingleDataBitFlipCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		bit := rng.Intn(64)
		corrupted := data ^ (1 << uint(bit))
		got, res := Decode(corrupted, check)
		if res != CorrectedData {
			t.Fatalf("data=%#x bit=%d: result = %v, want CorrectedData", data, bit, res)
		}
		if got != data {
			t.Fatalf("data=%#x bit=%d: corrected to %#x, want original", data, bit, got)
		}
	}
}

func TestSingleCheckBitFlipCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		bit := rng.Intn(8)
		got, res := Decode(data, check^(1<<uint(bit)))
		if res != CorrectedCheck {
			t.Fatalf("data=%#x checkbit=%d: result = %v, want CorrectedCheck", data, bit, res)
		}
		if got != data {
			t.Fatalf("data=%#x checkbit=%d: data changed to %#x", data, bit, got)
		}
	}
}

func TestDoubleDataBitFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		b1 := rng.Intn(64)
		b2 := rng.Intn(64)
		if b1 == b2 {
			continue
		}
		corrupted := data ^ (1 << uint(b1)) ^ (1 << uint(b2))
		_, res := Decode(corrupted, check)
		if res != Detected {
			t.Fatalf("data=%#x bits=%d,%d: result = %v, want Detected", data, b1, b2, res)
		}
	}
}

func TestDataPlusCheckBitFlipHandled(t *testing.T) {
	// One flip in data and one in check is a double error; SECDED must not
	// silently miscorrect it into wrong data. It may report Detected, or
	// correct-to-original in the rare aliasing-free cases; what it must
	// never do is return OK or return wrong data as CorrectedData.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		db := rng.Intn(64)
		cb := rng.Intn(8)
		got, res := Decode(data^(1<<uint(db)), check^(1<<uint(cb)))
		switch res {
		case OK:
			t.Fatalf("double error reported OK (data=%#x db=%d cb=%d)", data, db, cb)
		case CorrectedData, CorrectedCheck:
			if got != data {
				t.Fatalf("double error miscorrected to %#x, want %#x or Detected", got, data)
			}
		}
	}
}

func TestWordHelpers(t *testing.T) {
	w := NewWord(0x0123456789ABCDEF)
	if d, res := w.Read(); res != OK || d != 0x0123456789ABCDEF {
		t.Fatalf("clean Word.Read = %#x, %v", d, res)
	}
	if d, res := w.FlipDataBit(17).Read(); res != CorrectedData || d != 0x0123456789ABCDEF {
		t.Fatalf("FlipDataBit(17).Read = %#x, %v; want corrected", d, res)
	}
	if d, res := w.FlipCheckBit(3).Read(); res != CorrectedCheck || d != 0x0123456789ABCDEF {
		t.Fatalf("FlipCheckBit(3).Read = %#x, %v; want corrected check", d, res)
	}
	if _, res := w.FlipDataBit(1).FlipDataBit(2).Read(); res != Detected {
		t.Fatalf("double flip Read result = %v, want Detected", res)
	}
}

// Property: every single-bit corruption of (data, check) decodes back to
// the original data.
func TestPropertySingleFlipAlwaysRecoverable(t *testing.T) {
	f := func(data uint64, flip uint8) bool {
		w := NewWord(data)
		pos := int(flip) % 72
		var corrupted Word
		if pos < 64 {
			corrupted = w.FlipDataBit(pos)
		} else {
			corrupted = w.FlipCheckBit(pos - 64)
		}
		got, res := corrupted.Read()
		return got == data && (res == CorrectedData || res == CorrectedCheck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the check bits are a pure function of data (determinism).
func TestPropertyEncodeDeterministic(t *testing.T) {
	f := func(data uint64) bool { return Encode(data) == Encode(data) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint64(i) * 0x9E3779B97F4A7C15)
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	w := NewWord(0xDEADBEEF12345678)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Read()
	}
}
