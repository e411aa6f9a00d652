package resultcache

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// The codec is a tagged, fixed-width, little-endian binary encoding.
// Determinism is the whole point: the same Go values always produce the
// same bytes, on every platform, so they can feed a content hash.
// Every value carries a one-byte type tag so a decoder reading a
// corrupted or mismatched payload fails cleanly instead of
// reinterpreting bytes.
const (
	tagBool byte = iota + 1
	tagInt
	tagUint
	tagFloat
	tagDuration
	tagString
	tagBlob
)

// ErrCodec is the sticky error reported by a Dec that read malformed,
// truncated, or type-mismatched data.
var ErrCodec = errors.New("resultcache: malformed payload")

// Enc builds a canonical binary encoding. The zero value is ready to
// use; values append in call order, and the order is part of the
// format. Enc.Value takes that order from a type's declaration, so it
// and Dec.Value agree by construction; single appends must be read
// back in the same sequence.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage; it is valid until the next append.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer for reuse; a slice
// returned by Bytes before the Reset is overwritten by later appends.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bool appends a boolean.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
}

// Int appends a signed integer as 8 fixed bytes.
func (e *Enc) Int(v int64) {
	e.buf = append(e.buf, tagInt)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
}

// Uint appends an unsigned integer as 8 fixed bytes.
func (e *Enc) Uint(v uint64) {
	e.buf = append(e.buf, tagUint)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Float appends a float64 by its IEEE-754 bit pattern.
func (e *Enc) Float(v float64) {
	e.buf = append(e.buf, tagFloat)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Duration appends a time.Duration as its nanosecond count.
func (e *Enc) Duration(d time.Duration) {
	e.buf = append(e.buf, tagDuration)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(d.Nanoseconds()))
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.buf = append(e.buf, tagString)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(p []byte) {
	e.buf = append(e.buf, tagBlob)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(p)))
	e.buf = append(e.buf, p...)
}

// Dec reads values back out of an encoded buffer. Errors are sticky:
// after the first malformed read every subsequent call returns the zero
// value, so decode sequences read straight through and check Err (or
// Close) once at the end. A Dec never panics on hostile input — every
// read is bounds- and tag-checked.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over p. The decoder aliases p; the caller
// must not mutate it while decoding.
func NewDec(p []byte) *Dec { return &Dec{buf: p} }

// Err returns the sticky decode error, nil while all reads succeeded.
func (d *Dec) Err() error { return d.err }

// Close verifies the payload was fully consumed and returns the sticky
// error. Trailing bytes are malformed: a shorter-than-expected struct
// would silently zero-fill its tail otherwise.
func (d *Dec) Close() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = ErrCodec
	}
	return d.err
}

// need consumes the tag byte plus n payload bytes and returns the
// payload start offset, or -1 after recording the sticky error.
func (d *Dec) need(tag byte, n int) int {
	if d.err != nil {
		return -1
	}
	if d.off >= len(d.buf) || d.buf[d.off] != tag || len(d.buf)-d.off-1 < n {
		d.err = ErrCodec
		return -1
	}
	start := d.off + 1
	d.off = start + n
	return start
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	i := d.need(tagBool, 1)
	if i < 0 {
		return false
	}
	switch d.buf[i] {
	case 0:
		return false
	case 1:
		return true
	}
	d.err = ErrCodec
	return false
}

// Int reads a signed integer.
func (d *Dec) Int() int64 {
	i := d.need(tagInt, 8)
	if i < 0 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.buf[i:]))
}

// Uint reads an unsigned integer.
func (d *Dec) Uint() uint64 {
	i := d.need(tagUint, 8)
	if i < 0 {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[i:])
}

// Float reads a float64.
func (d *Dec) Float() float64 {
	i := d.need(tagFloat, 8)
	if i < 0 {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[i:]))
}

// Duration reads a time.Duration.
func (d *Dec) Duration() time.Duration {
	i := d.need(tagDuration, 8)
	if i < 0 {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint64(d.buf[i:]))
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	p := d.prefixed(tagString)
	if p == nil {
		return ""
	}
	return string(p)
}

// BlobView reads a length-prefixed byte slice without copying it: the
// result aliases the decoded buffer.
func (d *Dec) BlobView() []byte { return d.prefixed(tagBlob) }

// prefixed reads a tag + uint32 length + payload, bounds-checked
// against the remaining buffer so a hostile length cannot allocate or
// read out of range.
func (d *Dec) prefixed(tag byte) []byte {
	i := d.need(tag, 4)
	if i < 0 {
		return nil
	}
	n := binary.LittleEndian.Uint32(d.buf[i:])
	if uint32(len(d.buf)-d.off) < n {
		d.err = ErrCodec
		return nil
	}
	start := d.off
	d.off += int(n)
	return d.buf[start:d.off]
}
