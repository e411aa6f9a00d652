package emr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"radshield/internal/mem"
)

// Journal is EMR's checkpoint log: voted outputs are appended to a
// region of flash storage (always inside the reliability frontier) as
// they complete, so that a reboot — e.g. an ILD-commanded power cycle
// killing a long localization run — resumes from the last completed job
// instead of starting over. The paper's abstract calls this out as part
// of the runtime ("automatically manages and optimizes 3-MR and
// checkpointing"); spacecraft lose power unpredictably, so flight
// software checkpoints aggressively.
//
// Record layout (all little-endian):
//
//	u32 dataset index | u32 output length | u32 CRC32(output) | bytes
//
// A record is trusted only if its CRC matches — torn writes from a
// mid-append power cut are discarded, as is anything after them.
type Journal struct {
	rt     *Runtime
	region mem.Region
	used   uint64
}

const journalHeader = 12 // idx + len + crc

// NewJournal allocates a journal of the given byte capacity on the
// runtime's storage device.
func (r *Runtime) NewJournal(capacity uint64) (*Journal, error) {
	if capacity < journalHeader+1 {
		return nil, fmt.Errorf("emr: journal capacity %d too small", capacity)
	}
	addr, err := r.storage.Alloc(capacity)
	if err != nil {
		return nil, fmt.Errorf("emr: allocating journal: %w", err)
	}
	return &Journal{
		rt:     r,
		region: mem.Region{Addr: r.storageBase + addr, Len: capacity},
	}, nil
}

// append persists one completed output. A full journal returns an error;
// the caller keeps computing (checkpointing is best-effort).
func (j *Journal) append(idx int, out []byte) error {
	need := uint64(journalHeader + len(out))
	if j.used+need > j.region.Len {
		return fmt.Errorf("emr: journal full (%d of %d bytes used)", j.used, j.region.Len)
	}
	rec := make([]byte, need)
	binary.LittleEndian.PutUint32(rec[0:], uint32(idx))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(out)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(out))
	copy(rec[journalHeader:], out)
	if err := j.rt.bus.Write(j.region.Addr+j.used, rec); err != nil {
		return err
	}
	j.used += need
	return nil
}

// Load scans the journal from the start, returning every intact record.
// Scanning stops at the first corrupt or truncated record (everything
// after a torn write is untrustworthy).
func (j *Journal) Load() (map[int][]byte, error) {
	out := make(map[int][]byte)
	off := uint64(0)
	var hdr [journalHeader]byte
	for off+journalHeader <= j.region.Len {
		if err := j.rt.bus.Read(j.region.Addr+off, hdr[:]); err != nil {
			return out, err
		}
		length := uint64(binary.LittleEndian.Uint32(hdr[4:]))
		if length == 0 || off+journalHeader+length > j.region.Len {
			break // end of log (or truncated tail)
		}
		body := make([]byte, length)
		if err := j.rt.bus.Read(j.region.Addr+off+journalHeader, body); err != nil {
			return out, err
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[8:]) {
			break // torn write: discard this and everything after
		}
		out[int(binary.LittleEndian.Uint32(hdr[0:]))] = body
		off += journalHeader + length
		j.used = off
	}
	return out, nil
}

// Used returns the journal bytes consumed so far.
func (j *Journal) Used() uint64 { return j.used }

// RunJournaled executes the spec with checkpoint/resume semantics:
// datasets whose outputs are already in the journal are skipped (their
// outputs served from the checkpoint), the rest execute under the
// configured scheme, and every newly voted output is appended. The
// returned Result covers all datasets. Report.Datasets counts only the
// datasets actually executed this run.
func (r *Runtime) RunJournaled(spec Spec, j *Journal) (*Result, error) {
	if j == nil {
		return r.Run(spec)
	}
	done, err := j.Load()
	if err != nil {
		return nil, err
	}
	// A record for a dataset the spec does not have means the journal
	// checkpoints some other job; serving it would index past the spec.
	last := -1
	for i := range done {
		last = max(last, i)
	}
	if last >= len(spec.Datasets) {
		return nil, fmt.Errorf("emr: journal holds a record for dataset %d, but the spec has %d datasets", last, len(spec.Datasets))
	}
	// Reboot semantics: whatever the cache held is gone.
	r.cache.FlushAll()

	var pendingIdx []int
	var pending []Dataset
	for i, ds := range spec.Datasets {
		if _, ok := done[i]; !ok {
			pendingIdx = append(pendingIdx, i)
			pending = append(pending, ds)
		}
	}

	full := &Result{
		Outputs:    make([][]byte, len(spec.Datasets)),
		PerDataset: make([]DatasetResult, len(spec.Datasets)),
	}
	for i, out := range done {
		full.Outputs[i] = out
		full.PerDataset[i] = DatasetResult{Output: out}
	}
	if len(pending) == 0 {
		full.Report.Scheme = r.cfg.Scheme
		full.Report.Frontier = r.cfg.Frontier
		return full, nil
	}

	sub := spec
	sub.Datasets = pending
	if spec.ExtraConflict != nil {
		orig := spec.ExtraConflict
		sub.ExtraConflict = func(a, b int) bool { return orig(pendingIdx[a], pendingIdx[b]) }
	}
	if spec.Hook != nil {
		// The hook sees the spec's own dataset index and acts on the
		// runtime's hook point itself, so every field it sets (Output,
		// Fail, Stall) reaches the visit.
		orig := spec.Hook
		sub.Hook = func(hp *HookPoint) {
			si := hp.Dataset
			hp.Dataset = pendingIdx[si]
			orig(hp)
			hp.Dataset = si
		}
	}
	res, err := r.Run(sub)
	if err != nil {
		return nil, err
	}
	for si, origIdx := range pendingIdx {
		full.Outputs[origIdx] = res.Outputs[si]
		full.PerDataset[origIdx] = res.PerDataset[si]
		if res.Outputs[si] != nil {
			if err := j.append(origIdx, res.Outputs[si]); err != nil {
				// Best-effort: a full journal does not fail the run.
				break
			}
		}
	}
	full.Report = res.Report
	return full, nil
}
