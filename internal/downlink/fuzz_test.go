package downlink

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzFrameRoundTrip checks that any encodable frame decodes back to
// itself bit-for-bit: the codec must never lose or mutate telemetry on
// the way to the ground. AppendFrame onto a non-empty prefix must leave
// the prefix alone and append exactly EncodeFrame's bytes.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint8(0), uint8(0), uint32(0), []byte("hello"))
	f.Add(uint8(1), uint16(0xBEEF), uint8(3), uint8(1), uint32(0xFFFFFFFF), []byte{})
	f.Add(uint8(2), uint16(7), uint8(0), uint8(0), uint32(42), []byte{0x01, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, typ uint8, link uint16, vc, flags uint8, seq uint32, payload []byte) {
		in := Frame{Type: FrameType(typ), Link: link, VC: vc, Flags: flags, Seq: seq, Payload: payload}
		raw, err := EncodeFrame(in)
		prefix := append(make([]byte, 0, 64), "prefix"...) // spare room: appends land in place
		appended, appendErr := AppendFrame(prefix, in)
		if (err == nil) != (appendErr == nil) {
			t.Fatalf("EncodeFrame err %v, AppendFrame err %v", err, appendErr)
		}
		if string(appended[:len(prefix)]) != "prefix" {
			t.Fatalf("AppendFrame clobbered its prefix: %q", appended[:len(prefix)])
		}
		if !bytes.Equal(appended[len(prefix):], raw) {
			t.Fatalf("AppendFrame appended % x, EncodeFrame gave % x", appended[len(prefix):], raw)
		}
		if err != nil {
			// Rejections must be for a documented reason.
			if !errors.Is(err, ErrBadType) && !errors.Is(err, ErrBadVC) && !errors.Is(err, ErrBadLength) {
				t.Fatalf("unexpected encode error: %v", err)
			}
			return
		}
		out, n, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("decode of a frame we just encoded: %v", err)
		}
		if n != len(raw) {
			t.Fatalf("consumed %d of %d", n, len(raw))
		}
		if out.Type != in.Type || out.Link != in.Link || out.VC != in.VC ||
			out.Flags != in.Flags || out.Seq != in.Seq {
			t.Fatalf("round trip mutated header: %+v -> %+v", in, out)
		}
		if len(in.Payload) == 0 {
			if len(out.Payload) != 0 {
				t.Fatalf("payload appeared: % x", out.Payload)
			}
		} else if !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("payload mutated: % x -> % x", in.Payload, out.Payload)
		}
	})
}

// FuzzFrameDecode throws arbitrary bytes at the codec's trust boundary:
// it must classify them — never panic, never claim progress it did not
// make — because this is exactly what a corrupted radio channel feeds
// the ground station. A decoded payload aliases data, capped so an
// append to it cannot write into the rest of data.
func FuzzFrameDecode(f *testing.F) {
	good, _ := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: 0, Seq: 9, Payload: []byte("seed")})
	f.Add(good)
	flipped := append([]byte(nil), good...)
	flipped[HeaderLen] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{magic0, magic1, version, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{magic0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			return
		}
		if len(fr.Payload) > 0 && (&fr.Payload[0] != &data[HeaderLen] || cap(fr.Payload) != len(fr.Payload)) {
			t.Fatalf("payload does not alias data[%d:%d] with its cap at its length", HeaderLen, HeaderLen+len(fr.Payload))
		}
		// Whatever decoded must re-encode to the exact consumed bytes.
		re, encErr := EncodeFrame(fr)
		if encErr != nil {
			t.Fatalf("decoded frame does not re-encode: %v", encErr)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  % x\n out % x", data[:n], re)
		}
	})
}

// FuzzStationIngest feeds arbitrary bytes to a fresh ground station —
// what any TCP peer can send. The station must never panic, must answer
// with whole ACK frames appended after whatever dst held, each a
// FrameAck carrying its link × channel's next-expected sequence, and
// Ingest must return the very same frames.
func FuzzStationIngest(f *testing.F) {
	a, _ := EncodeFrame(Frame{Type: FrameData, Link: 1, VC: 0, Seq: 0, Payload: []byte("evt seq=0 t=10s")})
	b, _ := EncodeFrame(Frame{Type: FrameData, Link: 2, VC: 3, Flags: FlagBase, Seq: 4, Payload: []byte("bulk")})
	beacon, _ := AppendBeacon(nil, 1, 0, true, 9)
	f.Add(append(append(append([]byte(nil), a...), b...), beacon...))
	f.Add(a[:len(a)-1])
	f.Add([]byte("line noise"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStation(DefaultStationConfig())
		prefix := append(make([]byte, 0, 64), "prefix"...)
		out := st.AppendAcks(prefix, data, time.Second)
		if string(out[:len(prefix)]) != "prefix" {
			t.Fatalf("AppendAcks clobbered dst: %q", out[:len(prefix)])
		}
		acks := out[len(prefix):]
		if len(acks)%AckFrameLen != 0 {
			t.Fatalf("AppendAcks appended %d bytes, not a multiple of %d", len(acks), AckFrameLen)
		}
		for rest := acks; len(rest) > 0; rest = rest[AckFrameLen:] {
			fr, n, err := DecodeFrame(rest)
			if err != nil || n != AckFrameLen || fr.Type != FrameAck {
				t.Fatalf("ACK frame % x: %+v n=%d err=%v", rest[:AckFrameLen], fr, n, err)
			}
			next, err := AckValue(fr)
			ls := st.links[fr.Link]
			if err != nil || ls == nil || next != ls.vc[fr.VC].Expected {
				t.Fatalf("ACK for link %d vc %d carries %d (err %v), station expects %+v", fr.Link, fr.VC, next, err, ls)
			}
		}
		got := NewStation(DefaultStationConfig()).Ingest(data, time.Second)
		if !bytes.Equal(bytes.Join(got, nil), acks) || len(got) != len(acks)/AckFrameLen {
			t.Fatalf("Ingest returned %d frames % x, AppendAcks % x", len(got), got, acks)
		}
	})
}
