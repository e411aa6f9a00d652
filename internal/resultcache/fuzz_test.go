package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEntryRoundTrip drives arbitrary payloads through the full record
// path — Put, in-memory Get, Close, reopen, scanned Get — and asserts
// byte-identical replay. Any divergence would be a wrong-replay
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

// FuzzLogScan appends arbitrary bytes after three valid records in the
// data file and reopens the store. Whatever the bytes, Open must
// neither fail nor panic, the three records must replay byte for byte,
// and keys that were never stored must miss: a hostile tail costs the
// tail, never a wrong replay.
func FuzzLogScan(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		s, err := Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		key := func(i int64) Key {
			var e Enc
			e.Int(i)
			return s.Key("fuzz", &e)
		}
		for i := int64(0); i < 3; i++ {
			s.Put(key(i), payloadFor(i))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		data, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := data.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := data.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = Open(dir, WithFingerprint("fuzz"))
		if err != nil {
			t.Fatalf("Open with a fuzzed tail: %v", err)
		}
		defer s.Close()
		for i := int64(0); i < 3; i++ {
			if got, ok := s.Get(key(i)); !ok || !bytes.Equal(got, payloadFor(i)) {
				t.Fatalf("trial %d after a fuzzed tail: %q, %v", i, got, ok)
			}
		}
		for i := int64(3); i < 6; i++ {
			if got, ok := s.Get(key(i)); ok {
				t.Fatalf("never-stored trial %d replayed as %q", i, got)
			}
		}
	})
}
