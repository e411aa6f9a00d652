package resultcache

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.Bool(true)
	e.Bool(false)
	e.Int(-42)
	e.Int(1 << 60)
	e.Uint(0)
	e.Uint(^uint64(0))
	e.Float(3.14159)
	e.Float(-0.0)
	e.Duration(90 * 24 * time.Hour)
	e.Str("")
	e.Str("EMR+MBU")
	e.Blob(nil)
	e.Blob([]byte{0, 1, 2, 255})

	d := NewDec(e.Bytes())
	if got := d.Bool(); got != true {
		t.Errorf("Bool #1 = %v", got)
	}
	if got := d.Bool(); got != false {
		t.Errorf("Bool #2 = %v", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int #1 = %d", got)
	}
	if got := d.Int(); got != 1<<60 {
		t.Errorf("Int #2 = %d", got)
	}
	if got := d.Uint(); got != 0 {
		t.Errorf("Uint #1 = %d", got)
	}
	if got := d.Uint(); got != ^uint64(0) {
		t.Errorf("Uint #2 = %d", got)
	}
	if got := d.Float(); got != 3.14159 {
		t.Errorf("Float #1 = %v", got)
	}
	if got := d.Float(); got != 0 {
		t.Errorf("Float #2 = %v", got)
	}
	if got := d.Duration(); got != 90*24*time.Hour {
		t.Errorf("Duration = %v", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("Str #1 = %q", got)
	}
	if got := d.Str(); got != "EMR+MBU" {
		t.Errorf("Str #2 = %q", got)
	}
	if got := d.BlobView(); len(got) != 0 {
		t.Errorf("Blob #1 = %v", got)
	}
	if got := d.BlobView(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("Blob #2 = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCodecDeterministic(t *testing.T) {
	enc := func() []byte {
		var e Enc
		e.Int(7)
		e.Str("mission")
		e.Float(1.5)
		out := make([]byte, len(e.Bytes()))
		copy(out, e.Bytes())
		return out
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical inputs encoded to different bytes")
	}
}

func TestDecTagMismatch(t *testing.T) {
	var e Enc
	e.Int(5)
	d := NewDec(e.Bytes())
	if got := d.Str(); got != "" {
		t.Errorf("mismatched read returned %q", got)
	}
	if !errors.Is(d.Err(), ErrCodec) {
		t.Fatalf("Err = %v, want ErrCodec", d.Err())
	}
	// Sticky: subsequent reads stay zero, no panic.
	if got := d.Int(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
}

func TestDecTruncated(t *testing.T) {
	var e Enc
	e.Str("hello world")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		d.Str()
		if d.Err() == nil && cut != len(full) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecTrailingBytes(t *testing.T) {
	var e Enc
	e.Bool(true)
	e.Int(1)
	d := NewDec(e.Bytes())
	d.Bool()
	if err := d.Close(); !errors.Is(err, ErrCodec) {
		t.Fatalf("Close with unread tail = %v, want ErrCodec", err)
	}
}

func TestDecHostileLength(t *testing.T) {
	// A string header claiming 4 GiB must not allocate or read out of
	// bounds.
	raw := []byte{tagString, 0xff, 0xff, 0xff, 0xff, 'x'}
	d := NewDec(raw)
	if got := d.Str(); got != "" {
		t.Errorf("hostile length returned %q", got)
	}
	if !errors.Is(d.Err(), ErrCodec) {
		t.Fatalf("Err = %v, want ErrCodec", d.Err())
	}
}
