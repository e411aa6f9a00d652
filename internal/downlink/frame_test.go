package downlink

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameData, Link: 1, VC: 0, Seq: 0, Payload: []byte("hello")},
		{Type: FrameData, Link: 0xBEEF, VC: 3, Seq: 0xFFFFFFFF, Payload: nil},
		{Type: FrameData, Link: 7, VC: 2, Seq: 42, Payload: bytes.Repeat([]byte{0xA5}, MaxPayload)},
		{Type: FrameAck, Link: 9, VC: 1, Seq: 5, Payload: []byte{5, 0, 0, 0}},
		{Type: FrameBeacon, Link: 2, VC: 0, Seq: 11, Payload: []byte{1, 9, 0, 0, 0}},
	}
	for _, want := range cases {
		raw, err := EncodeFrame(want)
		if err != nil {
			t.Fatalf("EncodeFrame(%+v): %v", want, err)
		}
		if len(raw) != HeaderLen+len(want.Payload)+TrailerLen {
			t.Fatalf("encoded length %d, want %d", len(raw), HeaderLen+len(want.Payload)+TrailerLen)
		}
		got, n, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if n != len(raw) {
			t.Fatalf("consumed %d of %d bytes", n, len(raw))
		}
		if got.Type != want.Type || got.Link != want.Link || got.VC != want.VC || got.Seq != want.Seq {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("payload mismatch: got % x want % x", got.Payload, want.Payload)
		}
	}
}

func TestDecodeFrameStream(t *testing.T) {
	// Two frames back to back parse in sequence off one buffer.
	a, _ := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: 0, Seq: 0, Payload: []byte("a")})
	b, _ := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: 1, Seq: 7, Payload: []byte("bb")})
	buf := append(append([]byte{}, a...), b...)

	f1, n1, err := DecodeFrame(buf)
	if err != nil || n1 != len(a) || f1.VC != 0 {
		t.Fatalf("first frame: %+v n=%d err=%v", f1, n1, err)
	}
	f2, n2, err := DecodeFrame(buf[n1:])
	if err != nil || n2 != len(b) || f2.Seq != 7 {
		t.Fatalf("second frame: %+v n=%d err=%v", f2, n2, err)
	}
}

func TestEncodeFrameRejects(t *testing.T) {
	if _, err := EncodeFrame(Frame{Type: frameTypeCount}); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: %v", err)
	}
	if _, err := EncodeFrame(Frame{VC: NumVC}); !errors.Is(err, ErrBadVC) {
		t.Fatalf("bad vc: %v", err)
	}
	if _, err := EncodeFrame(Frame{Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("oversize payload: %v", err)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good, _ := EncodeFrame(Frame{Type: FrameData, Link: 3, VC: 1, Seq: 9, Payload: []byte("payload")})

	t.Run("truncated", func(t *testing.T) {
		_, n, err := DecodeFrame(good[:HeaderLen+TrailerLen-1])
		if !errors.Is(err, ErrTruncated) || n != 0 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		_, n, err = DecodeFrame(good[:len(good)-1])
		if !errors.Is(err, ErrTruncated) || n != 0 {
			t.Fatalf("short body: n=%d err=%v", n, err)
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, n, err := DecodeFrame(bad); !errors.Is(err, ErrBadMagic) || n != 0 {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = version + 1
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err=%v", err)
		}
	})
	t.Run("crc", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[HeaderLen] ^= 0x01 // flip one payload bit
		_, n, err := DecodeFrame(bad)
		if !errors.Is(err, ErrBadCRC) {
			t.Fatalf("err=%v", err)
		}
		// CRC failures still consume the whole frame so a stream parser
		// can resynchronize past it.
		if n != len(good) {
			t.Fatalf("consumed %d, want %d", n, len(good))
		}
	})
	t.Run("length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[12], bad[13] = 0xFF, 0xFF
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestAckRoundTrip(t *testing.T) {
	raw, err := AppendAck(nil, 5, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameAck || f.Link != 5 || f.VC != 2 {
		t.Fatalf("ack frame %+v", f)
	}
	next, err := AckValue(f)
	if err != nil || next != 1234 {
		t.Fatalf("AckValue = %d, %v", next, err)
	}
	if _, err := AckValue(Frame{Type: FrameData}); err == nil {
		t.Fatal("AckValue accepted a data frame")
	}
	if _, err := AckValue(Frame{Type: FrameAck, Payload: []byte{1}}); err == nil {
		t.Fatal("AckValue accepted a short payload")
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	raw, err := AppendBeacon(nil, 8, 3, true, 77)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	deg, pending, err := BeaconValue(f)
	if err != nil || !deg || pending != 77 {
		t.Fatalf("BeaconValue = %v, %d, %v", deg, pending, err)
	}
	if _, _, err := BeaconValue(Frame{Type: FrameData}); err == nil {
		t.Fatal("BeaconValue accepted a data frame")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameData.String() != "data" || FrameAck.String() != "ack" || FrameBeacon.String() != "beacon" {
		t.Fatal("frame type names changed")
	}
	if FrameType(99).String() != "type(99)" {
		t.Fatalf("unknown type: %s", FrameType(99).String())
	}
}
