package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"radshield/internal/telemetry"
)

const (
	dataFileName  = "cache.data"
	indexFileName = "cache.index"
	lockFileName  = "cache.lock"

	// Magic headers version the on-disk format; bump the trailing byte
	// on any layout change so old stores are discarded, not misread.
	dataMagic  = "RSRC\x00\x00\x00\x01"
	indexMagic = "RSIX\x00\x00\x00\x01"

	headerLen = 8
	// Record layout: key[32] | payloadLen uint32 | crc32(payload) uint32.
	recHeaderLen = KeySize + 8
	// indexEntryLen is key[32] | offset uint64 | payloadLen uint32.
	indexEntryLen = KeySize + 12

	// maxPayload bounds a single record so a corrupted length field
	// cannot drive a giant allocation during recovery scans.
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
// caching: Get misses, Put and Flush are no-ops.
type Store struct {
	mu       sync.Mutex
	dir      string
	fp       string
	data     *os.File
	lockFile *os.File
	index    map[Key]entryRef
	size     int64 // data file length
	appended bool  // records appended since the last index commit
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
// exclusive advisory lock, and loads the index — falling back to a full
// scan of the data file when the index is missing or fails its
// checksum, and recovering any records appended after the last index
// commit. Returns ErrLocked when another process holds the directory.
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
		dir:      dir,
		fp:       o.fp,
		data:     data,
		lockFile: lockFile,
		index:    make(map[Key]entryRef),
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

// load initializes the in-memory index from disk: verify the data
// header (resetting a foreign or corrupted file — it is only a cache),
// adopt the committed index if it checks out, then scan the tail for
// records appended after the last commit, truncating torn trailing
// bytes.
func (s *Store) load() error {
	fi, err := s.data.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size < headerLen || !s.headerOK() {
		if err := s.reset(); err != nil {
			return err
		}
		size = headerLen
	}
	s.size = size

	scanFrom := int64(headerLen)
	if refs, covered, ok := s.loadIndex(); ok {
		s.index = refs
		scanFrom = covered
	}
	return s.scanTail(scanFrom)
}

// headerOK reports whether the data file starts with our magic.
func (s *Store) headerOK() bool {
	var hdr [headerLen]byte
	if _, err := s.data.ReadAt(hdr[:], 0); err != nil {
		return false
	}
	return string(hdr[:]) == dataMagic
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

// loadIndex reads the committed index file. It returns the decoded
// references, the data-file offset the index covers up to, and whether
// the index was usable. Any defect — bad magic, short file, checksum
// mismatch, out-of-bounds entry — discards the index in favor of a
// scan; the index is an optimization, never the source of truth.
func (s *Store) loadIndex() (map[Key]entryRef, int64, bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, indexFileName))
	if err != nil {
		return nil, 0, false
	}
	if len(raw) < headerLen+8+4 || string(raw[:headerLen]) != indexMagic {
		return nil, 0, false
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false
	}
	count := binary.LittleEndian.Uint64(body[headerLen:])
	entries := body[headerLen+8:]
	if uint64(len(entries)) != count*indexEntryLen {
		return nil, 0, false
	}
	refs := make(map[Key]entryRef, count)
	covered := int64(headerLen)
	for i := uint64(0); i < count; i++ {
		e := entries[i*indexEntryLen:]
		var k Key
		copy(k[:], e[:KeySize])
		off := int64(binary.LittleEndian.Uint64(e[KeySize:]))
		n := binary.LittleEndian.Uint32(e[KeySize+8:])
		end := off + recHeaderLen + int64(n)
		if off < headerLen || n > maxPayload || end > s.size {
			return nil, 0, false
		}
		refs[k] = entryRef{off: off, n: n}
		if end > covered {
			covered = end
		}
	}
	return refs, covered, true
}

// scanTail walks records from off to the end of the data file, adding
// each valid record to the index. The first invalid record marks a torn
// or corrupted tail; the file is truncated there so future appends
// start from a clean boundary.
func (s *Store) scanTail(off int64) error {
	for off < s.size {
		var hdr [recHeaderLen]byte
		if _, err := s.data.ReadAt(hdr[:], off); err != nil {
			return s.truncateAt(off)
		}
		n := binary.LittleEndian.Uint32(hdr[KeySize:])
		sum := binary.LittleEndian.Uint32(hdr[KeySize+4:])
		end := off + recHeaderLen + int64(n)
		if n > maxPayload || end > s.size {
			return s.truncateAt(off)
		}
		payload := make([]byte, n)
		if _, err := s.data.ReadAt(payload, off+recHeaderLen); err != nil {
			return s.truncateAt(off)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return s.truncateAt(off)
		}
		var k Key
		copy(k[:], hdr[:KeySize])
		s.index[k] = entryRef{off: off, n: n}
		s.appended = true // recovered records are not yet in the committed index
		off = end
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
	s.appended = true
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

// Flush commits the in-memory index: entries are serialized sorted by
// key with a trailing CRC-32, written to a temporary file in the cache
// directory, synced, and atomically renamed over cache.index. A crash
// at any point leaves either the old or the new index, never a torn
// one. No-op when nothing was appended, and on a nil receiver.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.appended {
		return nil
	}
	keys := make([]Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	body := make([]byte, 0, headerLen+8+len(keys)*indexEntryLen+4)
	body = append(body, indexMagic...)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(keys)))
	for _, k := range keys {
		ref := s.index[k]
		body = append(body, k[:]...)
		body = binary.LittleEndian.AppendUint64(body, uint64(ref.off))
		body = binary.LittleEndian.AppendUint32(body, ref.n)
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	tmp, err := os.CreateTemp(s.dir, indexFileName+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexFileName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.appended = false
	return nil
}

// Close flushes the index, releases the directory lock, and closes the
// files. The store is unusable afterwards. Safe on a nil receiver.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	flushErr := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	syncErr := s.data.Sync()
	closeErr := s.data.Close()
	_ = flockRelease(s.lockFile)
	lockErr := s.lockFile.Close()
	for _, err := range []error{flushErr, syncErr, closeErr, lockErr} {
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
