// Package resultcache is the content-addressed campaign result store:
// a compact binary on-disk cache that turns a re-run of an already-flown
// campaign arm into a replay.
//
// # Addressing
//
// Every entry is addressed by a 32-byte key,
//
//	key = SHA-256(fingerprint ‖ 0x00 ‖ domain ‖ 0x00 ‖ payload)
//
// where payload is the canonical deterministic encoding (package codec,
// [Enc]) of everything the arm's result depends on — the arm
// configuration, the seed, and the trial identity — and fingerprint is
// the code-version fingerprint of the running binary ([Fingerprint]):
// the VCS revision from debug/buildinfo when the build is clean, else a
// SHA-256 of the executable itself. A rebuilt binary therefore never
// replays stale arms: its keys simply do not match, and the old entries
// age out unused.
//
// The soundness of replaying a cached result rests on the determinism
// contract of DESIGN.md §9: a campaign arm is a pure function of
// (config, seed), machine-checked whole-program by radlint's armpurity
// analyzer. Only armpurity-proven entry points may consult this store —
// see RESULTCACHE.md for the full argument and the contract test that
// enforces cached ⊆ proven.
//
// # Payload encoding
//
// Keys and results share one tagged codec ([Enc], [Dec]). [Enc.Value]
// walks a value's type with reflect and writes a struct's fields in
// declaration order; [Dec.Value] reads the same walk back in place. A
// type's declaration is thus its encoding: changing a cached type's
// fields changes the bytes and so the binary, and the fingerprint moves
// every key with it, so the domain stays. The walk runs once per arm;
// the record layer below it moves raw bytes.
//
// # On-disk format
//
// A cache directory holds two files:
//
//	cache.data   append-only record log
//	cache.lock   advisory flock target (empty)
//
// The data file opens with an 8-byte magic header and then holds
// length-prefixed records, each individually checksummed:
//
//	key[32] | payloadLen uint32 LE | crc32(payload) uint32 LE | payload
//
// The log is its own index: [Open] reads the file in one buffer and
// maps each key to the first of its records whose CRC checks. A record
// whose CRC fails is skipped; a record that runs past the end of the
// file is a torn append and is truncated. [Store.Close] syncs the log;
// there is nothing else to commit, so a crash loses at most the
// records the kernel had not yet written. A cache.index file left by
// an older build is ignored.
//
// Corruption anywhere degrades to a miss, never to a wrong replay:
// [Store.Get] re-verifies the stored key and per-record CRC on every
// read, and a mismatch drops the entry so the arm recomputes.
//
// # Concurrency
//
// A Store is safe for concurrent use by the scheduler's workers
// (internal/sched); a single mutex guards the in-memory index and the
// append path — arm compute time dwarfs it. Cross-process safety is
// advisory file locking on cache.lock: [Open] takes an exclusive
// non-blocking flock and returns [ErrLocked] when another process holds
// the directory, so callers degrade to running uncached rather than
// interleaving appends.
//
// A nil *Store is a valid "caching disabled" handle: Get always misses
// and Put is a no-op, so campaign code never guards against a missing
// cache.
package resultcache
