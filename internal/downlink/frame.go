package downlink

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame format (CCSDS-style transfer frame, little-endian):
//
//	offset  len  field
//	0       2    magic 0x5A 0xD5
//	2       1    version (1)
//	3       1    type (data / ack / beacon)
//	4       2    link id (spacecraft)
//	6       1    virtual channel (0..NumVC-1; 0 is highest priority)
//	7       1    flags (bit 0: window base, see FlagBase)
//	8       4    sequence number (per link × channel)
//	12      2    payload length (0..MaxPayload)
//	14      N    payload
//	14+N    4    CRC-32 (IEEE) over bytes [0, 14+N)
//
// The codec is the trust boundary of the subsystem: every byte arriving
// from the radio goes through DecodeFrame, which must reject anything
// malformed without panicking (FuzzFrameDecode enforces this).

const (
	magic0  = 0x5A
	magic1  = 0xD5
	version = 1

	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 14
	// TrailerLen is the CRC-32 trailer size in bytes.
	TrailerLen = 4
	// MaxPayload bounds a frame's payload so one frame never monopolizes
	// a bandwidth-starved link.
	MaxPayload = 1008
	// MaxFrameLen is the largest possible encoded frame.
	MaxFrameLen = HeaderLen + MaxPayload + TrailerLen

	// NumVC is the number of virtual channels (priority classes).
	NumVC = 4
)

// Frame flags (header byte 7).
const (
	// FlagBase marks a data frame as the sender's current window base:
	// the lowest sequence number still held by the flight recorder on
	// that channel. A base-flagged frame whose sequence is above the
	// station's expectation proves the gap is unrecoverable — the
	// recorder evicted those frames — so the station jumps forward
	// (counting the skip) instead of wedging go-back-N on data that no
	// longer exists.
	FlagBase uint8 = 1 << 0
)

// FrameType discriminates the three frame roles.
type FrameType uint8

const (
	// FrameData carries a telemetry payload on its virtual channel.
	FrameData FrameType = iota
	// FrameAck is a ground-to-space cumulative acknowledgement: its
	// 4-byte payload is the next sequence number the station expects on
	// the frame's virtual channel.
	FrameAck
	// FrameBeacon is the low-rate carrier heartbeat sent while the
	// transmitter is degraded: its payload is a 1-byte degradation flag
	// plus the 4-byte count of frames waiting in the flight recorder.
	FrameBeacon

	frameTypeCount
)

// String names the frame type for tables and events.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameBeacon:
		return "beacon"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Frame is one decoded transfer frame.
type Frame struct {
	Type    FrameType
	Link    uint16
	VC      uint8
	Flags   uint8
	Seq     uint32
	Payload []byte
}

// Codec errors. DecodeFrame returns them as they are, so a receiver
// that discards a mangled frame pays nothing for the error; AppendFrame
// wraps them with the offending value. errors.Is works against these
// sentinels either way.
var (
	ErrTruncated  = errors.New("downlink: frame truncated")
	ErrBadMagic   = errors.New("downlink: bad frame magic")
	ErrBadVersion = errors.New("downlink: unsupported frame version")
	ErrBadType    = errors.New("downlink: unknown frame type")
	ErrBadVC      = errors.New("downlink: virtual channel out of range")
	ErrBadLength  = errors.New("downlink: payload length out of range")
	ErrBadCRC     = errors.New("downlink: CRC mismatch")
)

// EncodeFrame serializes f into a fresh slice; see AppendFrame.
func EncodeFrame(f Frame) ([]byte, error) { return AppendFrame(nil, f) }

// AppendFrame appends the encoding of f to dst and returns the extended
// slice. It fails on payloads over MaxPayload, an out-of-range virtual
// channel, or an unknown type — oversized telemetry must be chunked by
// the caller, never silently truncated. On error dst is returned
// unchanged.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Type >= frameTypeCount {
		return dst, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if f.VC >= NumVC {
		return dst, fmt.Errorf("%w: %d", ErrBadVC, f.VC)
	}
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrBadLength, len(f.Payload))
	}
	start := len(dst)
	dst = slices.Grow(dst, HeaderLen+len(f.Payload)+TrailerLen)
	dst = append(dst, magic0, magic1, version, byte(f.Type))
	dst = binary.LittleEndian.AppendUint16(dst, f.Link)
	dst = append(dst, f.VC, f.Flags)
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// DecodeFrame parses one frame from the front of b and returns it with
// the number of bytes consumed. The returned Payload aliases b (capped,
// so appending to it never writes into b): it is valid only while b is,
// and a caller that keeps it must copy it. DecodeFrame never panics on
// hostile input: any malformed prefix yields an error (and, for framing
// errors where the payload length field is readable, the consumed count
// still advances past the bad frame so stream parsers can
// resynchronize).
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen+TrailerLen {
		return Frame{}, 0, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return Frame{}, 0, ErrBadMagic
	}
	if b[2] != version {
		return Frame{}, 0, ErrBadVersion
	}
	plen := int(binary.LittleEndian.Uint16(b[12:]))
	if plen > MaxPayload {
		return Frame{}, 0, ErrBadLength
	}
	total := HeaderLen + plen + TrailerLen
	if len(b) < total {
		return Frame{}, 0, ErrTruncated
	}
	wantCRC := binary.LittleEndian.Uint32(b[HeaderLen+plen:])
	if crc32.ChecksumIEEE(b[:HeaderLen+plen]) != wantCRC {
		return Frame{}, total, ErrBadCRC
	}
	f := Frame{
		Type:  FrameType(b[3]),
		Link:  binary.LittleEndian.Uint16(b[4:]),
		VC:    b[6],
		Flags: b[7],
		Seq:   binary.LittleEndian.Uint32(b[8:]),
	}
	if f.Type >= frameTypeCount {
		return Frame{}, total, ErrBadType
	}
	if f.VC >= NumVC {
		return Frame{}, total, ErrBadVC
	}
	if plen > 0 {
		f.Payload = b[HeaderLen : HeaderLen+plen : HeaderLen+plen]
	}
	return f, total, nil
}

// ReadFrame reads the next frame's raw bytes from a stream into buf's
// storage, resynchronizing on the magic bytes after line noise, and
// returns them. A buffer of MaxFrameLen capacity always fits, so a
// reader that passes the returned slice back in allocates nothing; a
// nil buf reads into a fresh slice. The returned slice still carries
// the CRC trailer: validation stays in DecodeFrame and
// Station.AppendAcks.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		hdr, err := br.Peek(HeaderLen)
		if err != nil {
			return buf[:0], err
		}
		if hdr[0] != magic0 || hdr[1] != magic1 {
			if _, err := br.Discard(1); err != nil {
				return buf[:0], err
			}
			continue
		}
		plen := int(binary.LittleEndian.Uint16(hdr[12:]))
		if plen > MaxPayload {
			// Corrupt length field: skip the magic and rescan.
			if _, err := br.Discard(2); err != nil {
				return buf[:0], err
			}
			continue
		}
		n := HeaderLen + plen + TrailerLen
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return buf[:0], err
		}
		return buf, nil
	}
}

// CheckLinkID rejects a link id that does not fit a frame's 16 bits or
// is 0. groundlink.DialFeed checks its id with it before narrowing it,
// and the CLIs check their -link-id flag with it before any work: an
// out-of-range id would otherwise wrap onto another spacecraft's link
// (65537 streams as link 1).
func CheckLinkID(link int) error {
	if link < 1 || link > 0xFFFF {
		return fmt.Errorf("downlink: link id %d out of range [1, 65535]", link)
	}
	return nil
}

// AckFrameLen is the encoded size of every ACK frame: a header, the
// 4-byte cumulative acknowledgement, and the CRC trailer.
const AckFrameLen = HeaderLen + 4 + TrailerLen

// AppendAck appends the cumulative acknowledgement for vc to dst:
// nextExpected is the lowest sequence number the station has not yet
// delivered. It appends exactly AckFrameLen bytes.
func AppendAck(dst []byte, link uint16, vc uint8, nextExpected uint32) ([]byte, error) {
	var payload [4]byte
	binary.LittleEndian.PutUint32(payload[:], nextExpected)
	return AppendFrame(dst, Frame{Type: FrameAck, Link: link, VC: vc, Seq: nextExpected, Payload: payload[:]})
}

// AckValue extracts the cumulative acknowledgement carried by an ACK
// frame.
func AckValue(f Frame) (uint32, error) {
	if f.Type != FrameAck {
		return 0, fmt.Errorf("downlink: AckValue on %v frame", f.Type)
	}
	if len(f.Payload) != 4 {
		return 0, fmt.Errorf("%w: ack payload %d bytes", ErrBadLength, len(f.Payload))
	}
	return binary.LittleEndian.Uint32(f.Payload), nil
}

// AppendBeacon appends the degraded-mode heartbeat to dst: seq is the
// beacon counter and pending the flight-recorder backlog at send time.
func AppendBeacon(dst []byte, link uint16, seq uint32, degraded bool, pending uint32) ([]byte, error) {
	var payload [5]byte
	if degraded {
		payload[0] = 1
	}
	binary.LittleEndian.PutUint32(payload[1:], pending)
	return AppendFrame(dst, Frame{Type: FrameBeacon, Link: link, VC: 0, Seq: seq, Payload: payload[:]})
}

// BeaconValue extracts the degradation flag and backlog from a beacon
// frame.
func BeaconValue(f Frame) (degraded bool, pending uint32, err error) {
	if f.Type != FrameBeacon {
		return false, 0, fmt.Errorf("downlink: BeaconValue on %v frame", f.Type)
	}
	if len(f.Payload) != 5 {
		return false, 0, fmt.Errorf("%w: beacon payload %d bytes", ErrBadLength, len(f.Payload))
	}
	return f.Payload[0] == 1, binary.LittleEndian.Uint32(f.Payload[1:]), nil
}
