package resultcache

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// probe exercises every kind Enc.Value encodes.
type probe struct {
	B   bool
	I   int
	I8  int8
	I32 int32
	U   uint
	U16 uint16
	U64 uint64
	F   float64
	D   time.Duration
	S   string
	Arr [2]int16
	In  probeInner
	Sl  []probeInner
	Nil []string
	SS  [][]string
}

type probeInner struct {
	Name string
	At   time.Duration
	OK   bool
}

func sampleProbe() probe {
	return probe{
		B: true, I: -7, I8: -8, I32: 1 << 30,
		U: 9, U16: 65535, U64: math.MaxUint64,
		F: -2.5, D: -90 * time.Second, S: "EMR+MBU",
		Arr: [2]int16{-1, 2},
		In:  probeInner{Name: "inner", At: time.Hour, OK: true},
		Sl:  []probeInner{{Name: "a", At: -time.Millisecond}, {Name: "b", OK: true}},
		SS:  [][]string{{"x", ""}, nil},
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, want := range []probe{sampleProbe(), {}} {
		var e Enc
		e.Value(want)
		// Decode over a dirty value: every field is overwritten.
		got := sampleProbe()
		got.Sl[0].Name = "stale"
		d := NewDec(e.Bytes())
		d.Value(&got)
		if err := d.Close(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
	}
}

// Value writes exactly what the tagged appenders write, by the rules
// its doc lists.
func TestValueMatchesAppenders(t *testing.T) {
	type layout struct {
		D time.Duration
		I int8
		U uint16
		F float64
		S string
		B bool
		A [2]int
		L []time.Duration
		N []int
	}
	var got, want Enc
	got.Value(layout{D: -time.Second, I: -3, U: 4, F: 0.5, S: "s", B: true, A: [2]int{6, 7}, L: []time.Duration{8}})
	want.Duration(-time.Second)
	want.Int(-3)
	want.Uint(4)
	want.Float(0.5)
	want.Str("s")
	want.Bool(true)
	want.Int(6)
	want.Int(7)
	want.Int(1)
	want.Duration(8)
	want.Int(0)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Value wrote\n%x\nappenders write\n%x", got.Bytes(), want.Bytes())
	}
}

func TestValueDecodeRejects(t *testing.T) {
	type target struct {
		I8 int8
		L  []bool
	}
	for _, tc := range []struct {
		name  string
		write func(*Enc)
	}{
		{"negative length", func(e *Enc) { e.Int(1); e.Int(-1) }},
		{"length past the end", func(e *Enc) { e.Int(1); e.Int(3); e.Bool(true) }},
		{"length past the buffer", func(e *Enc) { e.Int(1); e.Int(math.MaxInt64) }},
		{"wrong tag", func(e *Enc) { e.Uint(1); e.Int(0) }},
		{"duration for an int", func(e *Enc) { e.Duration(1); e.Int(0) }},
		{"int overflows its field", func(e *Enc) { e.Int(200); e.Int(0) }},
		{"truncated element", func(e *Enc) { e.Int(1); e.Int(2); e.Bool(true) }},
		{"trailing bytes", func(e *Enc) { e.Int(1); e.Int(0); e.Bool(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Enc
			tc.write(&e)
			var v target
			d := NewDec(e.Bytes())
			d.Value(&v)
			if err := d.Close(); !errors.Is(err, ErrCodec) {
				t.Fatalf("Close = %v, want ErrCodec", err)
			}
		})
	}
}

// A kind without an encoding is a bug in the type, so it panics on
// both sides instead of becoming an ErrCodec.
func TestValueRejectsUncodableTypes(t *testing.T) {
	var n int
	for name, f := range map[string]func(){
		"map field":       func() { new(Enc).Value(struct{ M map[string]int }{}) },
		"pointer":         func() { new(Enc).Value(&n) },
		"float32":         func() { new(Enc).Value(float32(1)) },
		"decode non-ptr":  func() { NewDec(nil).Value(n) },
		"decode nil ptr":  func() { NewDec(nil).Value((*int)(nil)) },
		"decode into map": func() { NewDec(nil).Value(&map[string]int{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

// FuzzValueDecode feeds arbitrary bytes to Dec.Value. It must never
// panic, and a payload it accepts must re-encode to exactly its bytes,
// so no two payloads decode to one value. It compares bytes, not
// values, so NaN payloads pass.
func FuzzValueDecode(f *testing.F) {
	var e Enc
	e.Value(sampleProbe())
	f.Add(bytes.Clone(e.Bytes()))
	f.Fuzz(func(t *testing.T, p []byte) {
		var v probe
		d := NewDec(p)
		d.Value(&v)
		if d.Close() != nil {
			return
		}
		var e Enc
		e.Value(v)
		if !bytes.Equal(e.Bytes(), p) {
			t.Fatalf("accepted %x, re-encoded as %x", p, e.Bytes())
		}
	})
}
