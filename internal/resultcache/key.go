package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime/debug"
)

// Key addresses one cached arm result: a SHA-256 over the code-version
// fingerprint, a domain string naming the campaign, and the canonical
// encoding of the arm's inputs.
type Key [sha256.Size]byte

// String renders the key as hex for logs and diagnostics.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Fingerprint identifies the code version of the running binary. Keys
// mix it in so a rebuilt binary never replays arms flown by different
// code: stale entries simply stop matching.
//
// When debug/buildinfo carries a VCS revision and the working tree was
// clean at build time, the fingerprint is "vcs:<revision>" — stable
// across rebuilds of the same commit, which is what lets CI reuse a
// persisted cache. A dirty tree (or a build without VCS stamping, such
// as a test binary) falls back to "exe:<sha256 of the executable>", so
// any change to the binary's bytes invalidates the cache.
func Fingerprint() (string, error) {
	if rev, ok := vcsRevision(); ok {
		return "vcs:" + rev, nil
	}
	return exeFingerprint()
}

// vcsRevision extracts a usable revision from build info: present and
// built from a clean tree. A dirty build must not key on the revision —
// two dirty builds of the same commit can run different code.
func vcsRevision() (string, bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	var rev string
	modified := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" || modified {
		return "", false
	}
	return rev, true
}

// exeFingerprint hashes the running executable's bytes.
func exeFingerprint() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "exe:" + hex.EncodeToString(h.Sum(nil)), nil
}
