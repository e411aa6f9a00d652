package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openTest opens a store in dir with a pinned fingerprint so tests are
// independent of how the test binary was built.
func openTest(t *testing.T, dir, fp string) *Store {
	t.Helper()
	s, err := Open(dir, WithFingerprint(fp))
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func testKey(s *Store, trial int64) Key {
	var e Enc
	e.Int(trial)
	return s.Key("test", &e)
}

func payloadFor(trial int64) []byte {
	return []byte(fmt.Sprintf("result-%d", trial))
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")

	k := testKey(s, 1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(k, payloadFor(1))
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payloadFor(1)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", st.HitRate())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestStoreReopenWithIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	for i := int64(0); i < 20; i++ {
		s.Put(testKey(s, i), payloadFor(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openTest(t, dir, "fp1")
	defer s.Close()
	for i := int64(0); i < 20; i++ {
		got, ok := s.Get(testKey(s, i))
		if !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("trial %d after reopen: %q, %v", i, got, ok)
		}
	}
}

func TestStoreRecoversUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	s.Put(testKey(s, 1), payloadFor(1))
	s.Put(testKey(s, 2), payloadFor(2))
	// Simulate a crash: drop the files and the lock without Close.
	s.mu.Lock()
	s.data.Close()
	flockRelease(s.lockFile)
	s.lockFile.Close()
	s.mu.Unlock()

	s = openTest(t, dir, "fp1")
	defer s.Close()
	for i := int64(1); i <= 2; i++ {
		got, ok := s.Get(testKey(s, i))
		if !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("trial %d after crash recovery: %q, %v", i, got, ok)
		}
	}
}

func TestStoreMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	for i := int64(0); i < 3; i++ {
		s.Put(testKey(s, i), payloadFor(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one payload byte of the first record: that record alone is
	// lost, and the two after it still replay.
	data := filepath.Join(dir, dataFileName)
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerLen+recHeaderLen] ^= 0x01
	if err := os.WriteFile(data, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, "fp1")
	defer s.Close()
	if got, ok := s.Get(testKey(s, 0)); ok {
		t.Fatalf("corrupted record replayed as %q", got)
	}
	for i := int64(1); i < 3; i++ {
		got, ok := s.Get(testKey(s, i))
		if !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("trial %d after a corrupted first record: %q, %v", i, got, ok)
		}
	}
}

func TestStoreBitFlipIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	k := testKey(s, 7)
	s.Put(k, payloadFor(7))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one payload bit on disk: the record tail is the payload.
	data := filepath.Join(dir, dataFileName)
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(data, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, "fp1")
	defer s.Close()
	if got, ok := s.Get(k); ok {
		t.Fatalf("bit-flipped record replayed as %q", got)
	}
	// The arm recomputes and re-caches; the new record must win.
	s.Put(k, payloadFor(7))
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payloadFor(7)) {
		t.Fatalf("recompute after corruption: %q, %v", got, ok)
	}
}

func TestStoreTruncatedDataIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	k1, k2 := testKey(s, 1), testKey(s, 2)
	s.Put(k1, payloadFor(1))
	s.Put(k2, payloadFor(2))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Chop the tail mid-record: the second entry is gone, the first
	// must survive, and Open must not trust index entries past EOF.
	data := filepath.Join(dir, dataFileName)
	fi, err := os.Stat(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(data, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, "fp1")
	defer s.Close()
	if got, ok := s.Get(k1); !ok || !bytes.Equal(got, payloadFor(1)) {
		t.Fatalf("intact record lost: %q, %v", got, ok)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("truncated record replayed")
	}
}

func TestStoreForeignFileResets(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dataFileName), []byte("not a cache at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, "fp1")
	defer s.Close()
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign file produced %d entries", st.Entries)
	}
	k := testKey(s, 1)
	s.Put(k, payloadFor(1))
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, payloadFor(1)) {
		t.Fatalf("store unusable after reset: %q, %v", got, ok)
	}
}

func TestFingerprintChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "build-A")
	// The key embeds the fingerprint, so "the same arm" under a new
	// build hashes differently and misses.
	kA := testKey(s, 3)
	s.Put(kA, payloadFor(3))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openTest(t, dir, "build-B")
	defer s.Close()
	kB := testKey(s, 3)
	if kA == kB {
		t.Fatal("keys identical across fingerprints")
	}
	if _, ok := s.Get(kB); ok {
		t.Fatal("stale arm replayed across a code change")
	}
	// The old entry is still present (keyed by build-A), just unmatched.
	if got, ok := s.Get(kA); !ok || !bytes.Equal(got, payloadFor(3)) {
		t.Fatalf("old-build entry lost: %q, %v", got, ok)
	}
}

func TestKeySensitivity(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	defer s.Close()

	base := func() *Enc {
		var e Enc
		e.Int(42)      // seed
		e.Float(1.5)   // rate boost
		e.Str("leo-6") // environment
		return &e
	}
	k0 := s.Key("mission", base())

	e := base()
	e.Int(0) // extra field
	if s.Key("mission", e) == k0 {
		t.Fatal("extra field did not change the key")
	}
	var e2 Enc
	e2.Int(43)
	e2.Float(1.5)
	e2.Str("leo-6")
	if s.Key("mission", &e2) == k0 {
		t.Fatal("changed seed did not change the key")
	}
	if s.Key("table7", base()) == k0 {
		t.Fatal("changed domain did not change the key")
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if _, ok := s.Get(Key{}); ok {
		t.Fatal("nil store hit")
	}
	s.Put(Key{}, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}

func TestDuplicatePutFirstWins(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	defer s.Close()
	k := testKey(s, 1)
	s.Put(k, []byte("first"))
	s.Put(k, []byte("second"))
	got, ok := s.Get(k)
	if !ok || string(got) != "first" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("Entries = %d", st.Entries)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, err := Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	b, err := Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if a != b || a == "" {
		t.Fatalf("Fingerprint unstable or empty: %q vs %q", a, b)
	}
}

func TestOpenSecondHandleLocked(t *testing.T) {
	if !flockSupported() {
		t.Skip("no advisory locking on this platform")
	}
	dir := t.TempDir()
	s := openTest(t, dir, "fp1")
	defer s.Close()
	if _, err := Open(dir, WithFingerprint("fp1")); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
}
