package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"radshield/internal/telemetry"
)

const (
	dataFileName = "cache.data"
	lockFileName = "cache.lock"

	// The magic header versions the on-disk format; bump the trailing
	// byte on any layout change so old stores are discarded, not misread.
	dataMagic = "RSRC\x00\x00\x00\x01"

	headerLen = 8
	// Record layout: key[32] | payloadLen uint32 | crc32(payload) uint32.
	recHeaderLen = KeySize + 8

	// maxPayload bounds a single record.
	maxPayload = 1 << 30
)

// KeySize is the byte length of a cache Key.
const KeySize = sha256.Size

// ErrLocked reports that another process holds the cache directory's
// advisory lock. Callers should degrade to running uncached.
var ErrLocked = errors.New("resultcache: cache directory locked by another process")

// Stats is a point-in-time summary of store activity.
type Stats struct {
	Hits    uint64 // Get calls satisfied from the store
	Misses  uint64 // Get calls that fell through to recompute
	Entries int    // records addressable right now
	Bytes   int64  // data file size
}

// HitRate returns hits/(hits+misses), 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entryRef struct {
	off int64
	n   uint32
}

// Store is an open cache directory. See the package documentation for
// the on-disk format and concurrency contract. A nil *Store disables
// caching: Get misses and Put is a no-op.
type Store struct {
	mu       sync.Mutex
	fp       string
	data     *os.File
	lockFile *os.File
	index    map[Key]entryRef
	size     int64 // data file length
	putErr   error // first append failure; writes disable, reads continue

	hits, misses uint64
	hitsC        *telemetry.Counter
	missesC      *telemetry.Counter
	bytesG       *telemetry.Gauge
}

type options struct {
	fp  string
	tel *telemetry.Registry
}

// Option configures Open.
type Option func(*options)

// WithTelemetry attaches a registry; the store maintains
// resultcache_hits_total, resultcache_misses_total and
// resultcache_bytes.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(o *options) { o.tel = r }
}

// Open opens (creating if needed) the cache directory at dir, takes its
// exclusive advisory lock, and indexes the records of its data file.
// Returns ErrLocked when another process holds the directory.
func Open(dir string, opts ...Option) (*Store, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.fp == "" {
		fp, err := Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("resultcache: fingerprint: %w", err)
		}
		o.fp = fp
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lockFile, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockTry(lockFile); err != nil {
		lockFile.Close()
		return nil, err
	}
	data, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		lockFile.Close()
		return nil, err
	}
	s := &Store{
		fp:       o.fp,
		data:     data,
		lockFile: lockFile,
		hitsC:    o.tel.Counter("resultcache_hits_total", "lookups"),
		missesC:  o.tel.Counter("resultcache_misses_total", "lookups"),
		bytesG:   o.tel.Gauge("resultcache_bytes", "bytes"),
	}
	if err := s.load(); err != nil {
		data.Close()
		lockFile.Close()
		return nil, err
	}
	s.bytesG.Set(float64(s.size))
	return s, nil
}

// load indexes the data file. It reads the whole file in one ReadAt and
// indexes every record whose CRC checks; the first valid record of a
// key wins, as in Put. A file without the magic header is foreign or
// corrupted and is reset (it is only a cache). A record whose CRC fails
// is skipped, so damage costs that record alone. A record that runs
// past the end of the file is a torn append: the file is truncated
// there so future appends start from a clean boundary.
func (s *Store) load() error {
	fi, err := s.data.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, fi.Size())
	if _, err := s.data.ReadAt(buf, 0); err != nil || len(buf) < headerLen || string(buf[:headerLen]) != dataMagic {
		s.index = make(map[Key]entryRef)
		s.size = headerLen
		return s.reset()
	}
	// One walk finds the records and the torn tail, so the index is
	// made at its size before the second walk checks and adds them.
	records, end := 0, headerLen
	for {
		next, ok := recordEnd(buf, end)
		if !ok {
			break
		}
		records++
		end = next
	}
	s.index = make(map[Key]entryRef, records)
	for off := headerLen; off < end; {
		next, _ := recordEnd(buf, off)
		rec := buf[off:next]
		k := Key(rec[:KeySize])
		if _, dup := s.index[k]; !dup && crc32.ChecksumIEEE(rec[recHeaderLen:]) == binary.LittleEndian.Uint32(rec[KeySize+4:]) {
			s.index[k] = entryRef{off: int64(off), n: uint32(len(rec) - recHeaderLen)}
		}
		off = next
	}
	if end < len(buf) {
		return s.truncateAt(int64(end))
	}
	s.size = int64(end)
	return nil
}

// recordEnd returns the end offset of the record that starts at off in
// buf, and false when its header or payload runs past the end of buf.
func recordEnd(buf []byte, off int) (int, bool) {
	if len(buf)-off < recHeaderLen {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(buf[off+KeySize:]))
	if n > int64(len(buf)-off-recHeaderLen) {
		return 0, false
	}
	return off + recHeaderLen + int(n), true
}

// reset truncates the data file to a fresh header. Cached results are
// reproducible by construction, so destroying an unreadable store is
// always safe — the arms recompute.
func (s *Store) reset() error {
	if err := s.data.Truncate(0); err != nil {
		return err
	}
	if _, err := s.data.WriteAt([]byte(dataMagic), 0); err != nil {
		return err
	}
	return nil
}

// truncateAt discards the data file tail from off on and records the
// new size.
func (s *Store) truncateAt(off int64) error {
	if err := s.data.Truncate(off); err != nil {
		return err
	}
	s.size = off
	return nil
}

// Key derives the cache key for one arm: SHA-256 over the store's
// code-version fingerprint, the domain (the campaign name, e.g.
// "mission"), and the canonical encoding of the arm's
// inputs. Keys from stores with different fingerprints never collide in
// practice, which is the whole invalidation story — see RESULTCACHE.md.
func (s *Store) Key(domain string, enc *Enc) Key {
	h := sha256.New()
	h.Write([]byte(s.fp))
	h.Write([]byte{0})
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write(enc.Bytes())
	var k Key
	h.Sum(k[:0])
	return k
}

// Get returns the payload stored under k. Every read re-verifies the
// record's stored key and CRC; a mismatch (bit rot, torn write) drops
// the entry and reports a miss so the arm recomputes — corruption can
// cost time, never correctness. Safe on a nil receiver (always a miss).
func (s *Store) Get(k Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[k]
	if !ok {
		return s.miss()
	}
	buf := make([]byte, recHeaderLen+int64(ref.n))
	if _, err := s.data.ReadAt(buf, ref.off); err != nil {
		delete(s.index, k)
		return s.miss()
	}
	var stored Key
	copy(stored[:], buf[:KeySize])
	n := binary.LittleEndian.Uint32(buf[KeySize:])
	sum := binary.LittleEndian.Uint32(buf[KeySize+4:])
	payload := buf[recHeaderLen:]
	if stored != k || n != ref.n || crc32.ChecksumIEEE(payload) != sum {
		delete(s.index, k)
		return s.miss()
	}
	s.hits++
	s.hitsC.Inc()
	return payload, true
}

// miss tallies a failed lookup. Callers hold s.mu.
func (s *Store) miss() ([]byte, bool) {
	s.misses++
	s.missesC.Inc()
	return nil, false
}

// Put appends payload under k. Put never fails the caller: an append
// error is recorded (see Err), writes disable, and the campaign flies
// on uncached. Duplicate keys are ignored — the first write wins, which
// keeps concurrent workers racing on the same arm benign. Safe on a nil
// receiver (no-op).
func (s *Store) Put(k Key, payload []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.putErr != nil {
		return
	}
	if _, dup := s.index[k]; dup {
		return
	}
	if len(payload) > maxPayload {
		s.putErr = fmt.Errorf("resultcache: payload %d bytes exceeds limit", len(payload))
		return
	}
	rec := make([]byte, 0, recHeaderLen+len(payload))
	rec = append(rec, k[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := s.data.WriteAt(rec, s.size); err != nil {
		s.putErr = err
		// Best effort: drop the torn record so the on-disk tail stays
		// parseable. A failure here is recovered by the next Open's scan.
		_ = s.data.Truncate(s.size)
		return
	}
	s.index[k] = entryRef{off: s.size, n: uint32(len(payload))}
	s.size += int64(len(rec))
	s.bytesG.Set(float64(s.size))
}

// Err returns the first append failure, nil while all writes landed.
func (s *Store) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putErr
}

// Close syncs the data file, releases the directory lock, and closes
// the files. The store is unusable afterwards. Safe on a nil receiver.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	syncErr := s.data.Sync()
	closeErr := s.data.Close()
	_ = flockRelease(s.lockFile)
	lockErr := s.lockFile.Close()
	for _, err := range []error{syncErr, closeErr, lockErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a point-in-time activity summary. Safe on a nil
// receiver (all zeros).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:    s.hits,
		Misses:  s.misses,
		Entries: len(s.index),
		Bytes:   s.size,
	}
}
