package emr

import (
	"fmt"
	"sort"

	"radshield/internal/mem"
)

// InputRef names a region of frontier memory a job reads. Refs are plain
// values: workloads slice them up freely to describe datasets.
type InputRef struct {
	Name   string
	Region mem.Region
}

// Slice narrows the ref to [off, off+n) within it. A slice escaping
// the ref is a dataset-construction bug reported as an error: workload
// builders run in flight software, where an out-of-range offset (e.g.
// from a corrupted job descriptor) must surface as a failed run the
// caller can retry, not a process crash.
func (r InputRef) Slice(off, n uint64) (InputRef, error) {
	if off+n > r.Region.Len || off+n < off {
		return InputRef{}, fmt.Errorf("emr: Slice(%d, %d) outside %q of %d bytes", off, n, r.Name, r.Region.Len)
	}
	return InputRef{
		Name:   r.Name,
		Region: mem.Region{Addr: r.Region.Addr + off, Len: n},
	}, nil
}

// Dataset is the set of input regions one job consumes (paper Figure 8:
// "a set of memory regions each computation uses as input").
type Dataset struct {
	Inputs []InputRef
}

// JobFunc computes one job: it receives the dataset's bytes in
// declaration order, appends its output to dst and returns the result,
// the way append and strconv.AppendInt do. The bytes come from the
// simulated memory hierarchy, so upsets that reached the executor are
// visible in the slices. The inputs are valid only until the job
// returns: the runtime refills the same buffers for the executor's next
// visit. A job therefore keeps no reference to them and never returns a
// sub-slice of its inputs.
//
// The runtime passes a zero-length dst whose capacity is the free tail
// of the executor's output buffer, so an output appended within that
// capacity costs no allocation; appending past it is allowed and
// allocates as append does. The runtime keeps whatever slice the job
// returns, so a job that ignores dst and returns bytes it owns stays
// correct, only slower. It advances its buffer only past an output that
// starts at dst's first byte, so a job returns dst extended, never a
// later part of it.
type JobFunc func(dst []byte, inputs [][]byte) ([]byte, error)

// regionKey identifies an exact region (identical pointer and offset, as
// the paper's common-data detection requires).
type regionKey struct {
	addr uint64
	len  uint64
}

// analysis is the pre-execution plan: which regions are replicated,
// which datasets conflict, and the jobset grouping.
type analysis struct {
	replicated map[regionKey]bool
	// replicas[e][key] is the bus address of executor e's private copy.
	replicas []map[regionKey]uint64
	// conflictRegions[i] lists dataset i's non-replicated regions.
	conflictRegions [][]mem.Region
	jobsets         [][]int
	conflictPairs   int
	replicaBytes    uint64
}

// detectCommon counts identical regions across datasets and marks those
// above the replication threshold (paper: "EMR detects this 'common
// data' by looking for datasets within the input data with identical
// pointers and offsets").
func detectCommon(datasets []Dataset, threshold float64) map[regionKey]bool {
	counts := make(map[regionKey]int)
	for _, d := range datasets {
		seen := make(map[regionKey]bool, len(d.Inputs))
		for _, in := range d.Inputs {
			k := regionKey{in.Region.Addr, in.Region.Len}
			if !seen[k] { // count each region once per dataset
				seen[k] = true
				counts[k]++
			}
		}
	}
	replicated := make(map[regionKey]bool)
	if threshold > 1 || len(datasets) == 0 {
		return replicated
	}
	if threshold == 0 {
		// Replicate everything: the fully-protected parallel 3-MR
		// endpoint of the paper's Figure 13 sweep (3× memory, zero
		// conflicts, zero cache clears).
		for k := range counts {
			replicated[k] = true
		}
		return replicated
	}
	need := threshold * float64(len(datasets))
	for k, c := range counts {
		// A region used by a single dataset gains nothing from
		// replication; require sharing.
		if c >= 2 && float64(c) >= need {
			replicated[k] = true
		}
	}
	return replicated
}

// conflict reports whether datasets a and b share any byte through their
// non-replicated regions.
func conflict(a, b []mem.Region) bool {
	for _, ra := range a {
		for _, rb := range b {
			if ra.Overlaps(rb) {
				return true
			}
		}
	}
	return false
}

// buildJobsets greedily assigns each dataset to the first jobset it does
// not conflict with (paper: "EMR greedily creates jobsets by assigning
// jobs to the first available jobset without conflicts").
func buildJobsets(regions [][]mem.Region, extra func(i, j int) bool) (jobsets [][]int, pairs int) {
	for i := range regions {
		placed := false
		for s := range jobsets {
			ok := true
			for _, j := range jobsets[s] {
				if conflict(regions[i], regions[j]) || (extra != nil && extra(i, j)) {
					ok = false
					pairs++
					break
				}
			}
			if ok {
				jobsets[s] = append(jobsets[s], i)
				placed = true
				break
			}
		}
		if !placed {
			jobsets = append(jobsets, []int{i})
		}
	}
	return jobsets, pairs
}

// plan runs replication detection, replica materialization, and jobset
// construction for a spec.
func (r *Runtime) plan(spec *Spec) (*analysis, error) {
	a := &analysis{
		replicated: detectCommon(spec.Datasets, r.cfg.ReplicationThreshold),
		replicas:   make([]map[regionKey]uint64, r.cfg.Executors),
	}

	// Materialize per-executor replicas of common regions, copying the
	// canonical bytes from the frontier. Deterministic order keeps
	// allocation layouts stable across runs.
	keys := make([]regionKey, 0, len(a.replicated))
	for k := range a.replicated {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return keys[i].len < keys[j].len
	})
	for e := 0; e < r.cfg.Executors; e++ {
		a.replicas[e] = make(map[regionKey]uint64, len(keys))
	}
	buf := make([]byte, 0)
	for _, k := range keys {
		if cap(buf) < int(k.len) {
			buf = make([]byte, k.len)
		}
		buf = buf[:k.len]
		if err := r.bus.Read(k.addr, buf); err != nil {
			return nil, fmt.Errorf("emr: reading common region %#x: %w", k.addr, err)
		}
		for e := 0; e < r.cfg.Executors; e++ {
			addr, err := r.workAlloc(k.len)
			if err != nil {
				return nil, fmt.Errorf("emr: allocating replica: %w", err)
			}
			if err := r.bus.Write(addr, buf); err != nil {
				return nil, fmt.Errorf("emr: writing replica: %w", err)
			}
			a.replicas[e][k] = addr
			a.replicaBytes += k.len
		}
	}

	// Conflict graph over non-replicated regions only, every dataset's
	// list cut from one backing array.
	inputs := 0
	for _, d := range spec.Datasets {
		inputs += len(d.Inputs)
	}
	shared := make([]mem.Region, 0, inputs)
	a.conflictRegions = make([][]mem.Region, len(spec.Datasets))
	for i, d := range spec.Datasets {
		start := len(shared)
		for _, in := range d.Inputs {
			k := regionKey{in.Region.Addr, in.Region.Len}
			if !a.replicated[k] {
				shared = append(shared, in.Region)
			}
		}
		a.conflictRegions[i] = shared[start:len(shared):len(shared)]
	}
	a.jobsets, a.conflictPairs = buildJobsets(a.conflictRegions, spec.ExtraConflict)
	return a, nil
}

// executorRegion resolves the region executor e actually reads for an
// input: the private replica when the region is replicated, the shared
// frontier region otherwise.
func (a *analysis) executorRegion(e int, in InputRef) mem.Region {
	k := regionKey{in.Region.Addr, in.Region.Len}
	if a.replicated[k] {
		return mem.Region{Addr: a.replicas[e][k], Len: in.Region.Len}
	}
	return in.Region
}
