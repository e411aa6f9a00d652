package emr

import (
	"cmp"
	"fmt"
	"slices"

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

// compareKeys orders regions by address, then length: the order
// replicas are materialized in.
func compareKeys(a, b regionKey) int {
	if c := cmp.Compare(a.addr, b.addr); c != 0 {
		return c
	}
	return cmp.Compare(a.len, b.len)
}

// analysis is the pre-execution plan: which regions are replicated and
// where each executor's copies live, which datasets conflict, and the
// jobset grouping. Each table is one array, or several slices cut from
// one, so a plan's bookkeeping is a few allocations whatever the
// dataset count.
type analysis struct {
	// replicated lists the replicated regions in (addr, len) order.
	replicated []regionKey
	// replicas[e*len(replicated)+k] is the bus address of executor e's
	// private copy of replicated[k].
	replicas []uint64
	// replicaOf[d][i] is the index in replicated of dataset d's input i,
	// or -1 when that input is read in place.
	replicaOf [][]int
	// conflictRegions[i] lists dataset i's non-replicated regions.
	conflictRegions [][]mem.Region
	jobsets         [][]int
	conflictPairs   int
	replicaBytes    uint64
}

// detectCommon returns, in (addr, len) order, the identical regions
// used by enough datasets to replicate (paper: "EMR detects this
// 'common data' by looking for datasets within the input data with
// identical pointers and offsets"). Every dataset adds each of its
// distinct regions to one key slice, once however often it reads it,
// and sorting that slice groups a region's uses into one run.
func detectCommon(datasets []Dataset, threshold float64) []regionKey {
	if threshold > 1 || len(datasets) == 0 {
		return nil
	}
	inputs := 0
	for _, d := range datasets {
		inputs += len(d.Inputs)
	}
	keys := make([]regionKey, 0, inputs)
	for _, d := range datasets {
	next:
		for i, in := range d.Inputs {
			for _, earlier := range d.Inputs[:i] {
				if earlier.Region == in.Region {
					continue next // count each region once per dataset
				}
			}
			keys = append(keys, regionKey{in.Region.Addr, in.Region.Len})
		}
	}
	slices.SortFunc(keys, compareKeys)
	need := threshold * float64(len(datasets))
	common := keys[:0]
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		// Threshold 0 replicates everything: the fully-protected
		// parallel 3-MR endpoint of the paper's Figure 13 sweep (3×
		// memory, zero conflicts, zero cache clears). Otherwise a region
		// used by a single dataset gains nothing from replication;
		// require sharing.
		if c := j - i; threshold == 0 || c >= 2 && float64(c) >= need {
			common = append(common, keys[i])
		}
		i = j
	}
	return common
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
// jobs to the first available jobset without conflicts"). While it
// assigns, each jobset is a list threaded through one index array; the
// jobsets it returns are then cut from that array's first n entries.
func buildJobsets(regions [][]mem.Region, extra func(i, j int) bool) (jobsets [][]int, pairs int) {
	n := len(regions)
	idx := make([]int, 4*n)
	// next[i] follows dataset i in its jobset (-1 ends the list); first
	// and last are each jobset's ends.
	members, next, first, last := idx[:n], idx[n:2*n], idx[2*n:3*n], idx[3*n:]
	sets := 0
	for i := range regions {
		s := 0
		for ; s < sets; s++ {
			ok := true
			for j := first[s]; j >= 0; j = next[j] {
				if conflict(regions[i], regions[j]) || (extra != nil && extra(i, j)) {
					ok = false
					pairs++
					break
				}
			}
			if ok {
				break
			}
		}
		if s == sets {
			first[s] = i
			sets++
		} else {
			next[last[s]] = i
		}
		next[i], last[s] = -1, i
	}
	jobsets = make([][]int, sets)
	k := 0
	for s := range jobsets {
		start := k
		for j := first[s]; j >= 0; j = next[j] {
			members[k] = j
			k++
		}
		jobsets[s] = members[start:k:k]
	}
	return jobsets, pairs
}

// plan runs replication detection, replica materialization, and jobset
// construction for a spec.
func (r *Runtime) plan(spec *Spec) (*analysis, error) {
	ex := r.cfg.Executors
	common := detectCommon(spec.Datasets, r.cfg.ReplicationThreshold)
	a := &analysis{replicated: common, replicas: make([]uint64, ex*len(common))}

	// Materialize per-executor replicas of common regions, copying the
	// canonical bytes from the frontier. Deterministic order (keys in
	// (addr, len) order, executors inner) keeps allocation layouts
	// stable across runs.
	var longest uint64
	for _, k := range common {
		longest = max(longest, k.len)
	}
	buf := make([]byte, longest)
	for ki, k := range common {
		canon := buf[:k.len]
		if err := r.bus.Read(k.addr, canon); err != nil {
			return nil, fmt.Errorf("emr: reading common region %#x: %w", k.addr, err)
		}
		for e := 0; e < ex; e++ {
			addr, err := r.workAlloc(k.len)
			if err != nil {
				return nil, fmt.Errorf("emr: allocating replica: %w", err)
			}
			if err := r.bus.Write(addr, canon); err != nil {
				return nil, fmt.Errorf("emr: writing replica: %w", err)
			}
			a.replicas[e*len(common)+ki] = addr
			a.replicaBytes += k.len
		}
	}

	// Each input's replica index, and the conflict graph over the
	// non-replicated regions; every dataset's lists are cut from one
	// backing array per table.
	inputs := 0
	for _, d := range spec.Datasets {
		inputs += len(d.Inputs)
	}
	shared := make([]mem.Region, 0, inputs)
	replicaOf := make([]int, 0, inputs)
	a.conflictRegions = make([][]mem.Region, len(spec.Datasets))
	a.replicaOf = make([][]int, len(spec.Datasets))
	for i, d := range spec.Datasets {
		start, from := len(shared), len(replicaOf)
		for _, in := range d.Inputs {
			k, ok := slices.BinarySearchFunc(common, regionKey{in.Region.Addr, in.Region.Len}, compareKeys)
			if !ok {
				k = -1
				shared = append(shared, in.Region)
			}
			replicaOf = append(replicaOf, k)
		}
		a.conflictRegions[i] = shared[start:len(shared):len(shared)]
		a.replicaOf[i] = replicaOf[from:len(replicaOf):len(replicaOf)]
	}
	a.jobsets, a.conflictPairs = buildJobsets(a.conflictRegions, spec.ExtraConflict)
	return a, nil
}

// executorRegion resolves the region executor e actually reads for
// dataset d's input i, whose frontier region is reg: the private replica
// when the region is replicated, the shared frontier region otherwise.
func (a *analysis) executorRegion(e, d, i int, reg mem.Region) mem.Region {
	if k := a.replicaOf[d][i]; k >= 0 {
		return mem.Region{Addr: a.replicas[e*len(a.replicated)+k], Len: reg.Len}
	}
	return reg
}
