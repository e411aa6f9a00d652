package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEntryRoundTrip drives arbitrary payloads through the full record
// path — Put, in-memory Get, index commit, reopen, tail-scan Get — and
// asserts byte-identical replay. Any divergence would be a wrong-replay
// bug, the one failure mode the cache must never have.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("result-1"))
	f.Add([]byte{0x00, 0xff, 0x00, 0xff})
	f.Add(bytes.Repeat([]byte{0xa5}, 4096))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		s, err := Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var e Enc
		e.Blob(payload)
		k := s.Key("fuzz", &e)
		s.Put(k, payload)
		if err := s.Err(); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("in-memory Get = %v, %v", got, ok)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s, err = Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		got, ok = s.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("replayed Get = %v, %v", got, ok)
		}
	})
}

// FuzzIndexDecode feeds arbitrary bytes to the index loader (and, via
// Open, the tail scanner) over a small valid data file. Whatever the
// bytes, Open must neither panic nor produce a store that replays wrong
// data — a hostile index degrades to a rescan, a hostile data tail to a
// truncation.
func FuzzIndexDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(indexMagic))
	f.Add([]byte("RSIX\x00\x00\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add(bytes.Repeat([]byte{0x00}, headerLen+8+indexEntryLen+4))
	f.Fuzz(func(t *testing.T, idx []byte) {
		dir := t.TempDir()
		s, err := Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var keys []Key
		for i := int64(0); i < 3; i++ {
			var e Enc
			e.Int(i)
			k := s.Key("fuzz", &e)
			s.Put(k, payloadFor(i))
			keys = append(keys, k)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, indexFileName), idx, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err = Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("Open with fuzzed index: %v", err)
		}
		defer s.Close()
		for i, k := range keys {
			if got, ok := s.Get(k); ok && !bytes.Equal(got, payloadFor(int64(i))) {
				t.Fatalf("wrong replay for trial %d: %q", i, got)
			}
		}
	})
}
