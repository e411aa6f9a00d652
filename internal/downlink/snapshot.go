package downlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"

	"radshield/internal/resultcache"
)

// This file is the recorder's NVRAM persistence surface. The flight
// recorder models non-volatile storage ("a power cycle resets the
// transmitter but never the recorder"), which means its contents cross
// reboots through a persisted page — and a persisted page is exactly
// what an OS-level filesystem-corruption fault damages (torn write
// under an IO-error burst, bit flips in flash, truncation). The page
// format is therefore defensive: versioned magic, explicit length,
// CRC-32 over the payload, and strict semantic validation on restore.
// A damaged page is *detected and degraded* — Restore leaves the
// recorder verifiably empty rather than replaying wrong state.

// snapshotMagic identifies a recorder NVRAM page; the last byte is the
// format version. Bumping the version makes old pages fail loudly at
// the magic check instead of misdecoding.
var snapshotMagic = [8]byte{'R', 'D', 'N', 'V', 0, 0, 0, 1}

// snapshotHeaderLen is magic + payload length (u32le) + CRC-32 (u32le).
const snapshotHeaderLen = len(snapshotMagic) + 8

// ErrSnapshotCorrupt is returned by Restore when the page fails any
// integrity check. Callers match it with errors.Is; after the error the
// recorder is empty.
var ErrSnapshotCorrupt = errors.New("downlink: corrupt recorder snapshot")

// AppendSnapshot encodes the recorder's full state — per-channel
// sequence cursors, eviction count, and every unacknowledged record —
// as one self-validating NVRAM page, appends it to dst and returns the
// extended slice. The encoding is canonical: restoring a snapshot and
// snapshotting again yields identical bytes. The payload is encoded in
// the recorder's own scratch, so a caller that writes every page into a
// buffer it reuses allocates nothing once both have grown to the
// largest page.
func (r *Recorder) AppendSnapshot(dst []byte) []byte {
	e := &r.enc
	e.Reset()
	e.Uint(r.evicted)
	for vc := range r.perVC {
		recs := r.perVC[vc].live()
		e.Uint(uint64(r.nextSeq[vc]))
		e.Uint(uint64(len(recs)))
		for _, rec := range recs {
			e.Uint(uint64(rec.Seq))
			e.Duration(rec.Enqueued)
			e.Blob(rec.Payload)
		}
	}
	payload := e.Bytes()
	dst = slices.Grow(dst, snapshotHeaderLen+len(payload))
	dst = append(dst, snapshotMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	r.ins.snapshotSaved()
	return dst
}

// Restore replaces the recorder's state with the contents of an NVRAM
// page produced by AppendSnapshot. The recorder is wiped first; if the
// page fails any integrity check the error wraps ErrSnapshotCorrupt and
// the recorder stays verifiably empty — a corrupt page must never
// replay stale or invented frames. The page decodes straight into the
// wiped queues and recycled payload buffers, so restoring a page shaped
// like one restored before allocates nothing.
func (r *Recorder) Restore(data []byte) error {
	r.wipe()
	if err := r.decodeSnapshot(data); err != nil {
		r.wipe() // all or nothing: drop what decoded before the fault
		r.ins.snapshotCorrupt()
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	r.ins.snapshotRestored()
	r.ins.ringDepth(r.count)
	return nil
}

// wipe empties the recorder (sequence cursors included), keeping its
// queues and payload buffers for reuse.
func (r *Recorder) wipe() {
	for vc := range r.perVC {
		q := &r.perVC[vc]
		for _, rec := range q.live() {
			r.release(rec.Payload)
		}
		q.popFront(len(q.live()))
	}
	r.nextSeq = [NumVC]uint32{}
	r.count = 0
	r.evicted = 0
	r.ins.ringDepth(0)
}

// decodeSnapshot validates one NVRAM page and decodes it into the
// (wiped) recorder. Every check is strict: framing, CRC, record count
// against capacity, per-channel sequence monotonicity against the
// cursor, and payload bounds. On error the recorder holds a partial
// decode that Restore wipes. The decoder must never panic on hostile
// input — that is FuzzRecorderSnapshot's contract.
func (r *Recorder) decodeSnapshot(data []byte) error {
	if len(data) < snapshotHeaderLen {
		return fmt.Errorf("page truncated at %d bytes", len(data))
	}
	if string(data[:len(snapshotMagic)]) != string(snapshotMagic[:]) {
		return fmt.Errorf("bad magic %x", data[:len(snapshotMagic)])
	}
	plen := binary.LittleEndian.Uint32(data[len(snapshotMagic):])
	crc := binary.LittleEndian.Uint32(data[len(snapshotMagic)+4:])
	payload := data[snapshotHeaderLen:]
	if uint64(len(payload)) != uint64(plen) {
		return fmt.Errorf("payload length %d, header says %d", len(payload), plen)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return fmt.Errorf("CRC mismatch")
	}
	d := resultcache.NewDec(payload)
	r.evicted = d.Uint()
	for vc := range r.perVC {
		next := d.Uint()
		if next > math.MaxUint32 {
			return fmt.Errorf("vc %d: sequence cursor %d overflows", vc, next)
		}
		r.nextSeq[vc] = uint32(next)
		n := d.Uint()
		if d.Err() != nil {
			return d.Err()
		}
		if n > uint64(r.capacity) {
			return fmt.Errorf("vc %d: %d records exceeds capacity %d", vc, n, r.capacity)
		}
		prevSeq := int64(-1)
		for i := uint64(0); i < n; i++ {
			seq := d.Uint()
			enq := d.Duration()
			pay := d.BlobView()
			if d.Err() != nil {
				return d.Err()
			}
			if seq > math.MaxUint32 || seq >= next {
				return fmt.Errorf("vc %d: record seq %d outside cursor %d", vc, seq, next)
			}
			if int64(seq) <= prevSeq {
				return fmt.Errorf("vc %d: sequence not increasing at %d", vc, seq)
			}
			if len(pay) > MaxPayload {
				return fmt.Errorf("vc %d: payload %d bytes exceeds %d", vc, len(pay), MaxPayload)
			}
			prevSeq = int64(seq)
			r.push(Record{
				VC:       uint8(vc),
				Seq:      uint32(seq),
				Payload:  append(r.payloadBuf(len(pay)), pay...),
				Enqueued: enq,
			})
			r.count++
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	if r.count > r.capacity {
		return fmt.Errorf("%d records exceeds capacity %d", r.count, r.capacity)
	}
	return nil
}

// CorruptSnapshot returns a damaged copy of an NVRAM page, modelling
// the filesystem-corruption fault class. mode selects the damage
// pattern: "torn" zeroes the page's tail from a random offset (a write
// interrupted by power loss), "bitflip" flips three random bits
// (radiation-struck flash), "truncate" cuts the page short at a random
// length. Damage draws come from rng so campaigns stay deterministic.
// An empty page is returned unchanged (nothing to damage).
func CorruptSnapshot(data []byte, rng *rand.Rand, mode string) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	switch mode {
	case "torn":
		from := rng.Intn(len(out))
		for i := from; i < len(out); i++ {
			out[i] = 0
		}
	case "bitflip":
		for i := 0; i < 3; i++ {
			bit := rng.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		}
	case "truncate":
		out = out[:rng.Intn(len(out))]
	}
	return out
}
