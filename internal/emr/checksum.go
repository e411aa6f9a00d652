package emr

import (
	"fmt"
	"hash/crc32"
)

// This file implements the checksum-guard baseline the paper discusses
// in §2.2: "storing checksums of critical memory values, which are
// recomputed every time memory is written to and verified every time the
// memory location is read" (Borchert et al. style). It executes each job
// ONCE, on SchemeNone's pass (runPass), verifying input integrity by
// checksum at read time.
//
// The scheme catches memory-resident corruption (frontier, cache) the
// moment it is consumed, but — as the paper argues — it cannot catch
// faults in the compute pipeline itself: a flipped ALU result passes
// every memory checksum and reaches the output silently. The Table 7
// extension campaign demonstrates exactly that gap.

// checksumStore records the CRC of every distinct input region at run
// start, keyed by exact region: a Slice()d dataset verifies against the
// CRC of its own bytes, not its parent LoadInput region's.
type checksumStore struct {
	crcs map[regionKey]uint32
}

// ErrChecksumMismatch is wrapped in the dataset error when a verified
// read disagrees with the stored checksum (a detected error).
var ErrChecksumMismatch = fmt.Errorf("emr: input checksum mismatch")

// checksumDatasets snapshots the CRC of each dataset input region from
// the frontier, bypassing the cache (the guard's metadata lives inside
// the frontier).
func (r *Runtime) checksumDatasets(spec *Spec) (*checksumStore, error) {
	store := &checksumStore{crcs: make(map[regionKey]uint32)}
	buf := []byte(nil)
	for _, ds := range spec.Datasets {
		for _, in := range ds.Inputs {
			k := regionKey{in.Region.Addr, in.Region.Len}
			if _, ok := store.crcs[k]; ok {
				continue
			}
			if uint64(cap(buf)) < in.Region.Len {
				buf = make([]byte, in.Region.Len)
			}
			buf = buf[:in.Region.Len]
			if err := r.bus.Read(in.Region.Addr, buf); err != nil {
				return nil, fmt.Errorf("emr: checksumming %q: %w", in.Name, err)
			}
			store.crcs[k] = crc32.ChecksumIEEE(buf)
		}
	}
	return store, nil
}

// verifyChecksums checks the bytes a visit consumed against the stored
// CRCs: this is the guard's read-path check, and it sees exactly what
// the job sees. A nil store verifies nothing; only the checksum scheme
// keeps one.
func (r *Runtime) verifyChecksums(store *checksumStore, ds Dataset, dsIdx int, inputs [][]byte) error {
	if store == nil {
		return nil
	}
	for i, in := range ds.Inputs {
		want, ok := store.crcs[regionKey{in.Region.Addr, in.Region.Len}]
		if !ok {
			return fmt.Errorf("emr: no checksum for %q", in.Name)
		}
		if crc32.ChecksumIEEE(inputs[i]) != want {
			r.ins.checksumMiss(dsIdx, in.Name)
			return fmt.Errorf("%w: %q", ErrChecksumMismatch, in.Name)
		}
	}
	return nil
}
