package emr

import (
	"fmt"
	"sort"

	"radshield/internal/mem"
)

// The planner as it was written with maps, kept as the reference that
// FuzzPlanMatchesReference holds plan, detectCommon and buildJobsets
// to: a set of replicated regions, one replica map per executor, and
// jobsets grown by append.

// referenceAnalysis is the map-based plan.
type referenceAnalysis struct {
	replicated map[regionKey]bool
	// replicas[e][key] is the bus address of executor e's private copy.
	replicas        []map[regionKey]uint64
	conflictRegions [][]mem.Region
	jobsets         [][]int
	conflictPairs   int
	replicaBytes    uint64
}

// referenceDetectCommon counts identical regions across datasets in a
// map, each once per dataset, and marks those the threshold keeps.
func referenceDetectCommon(datasets []Dataset, threshold float64) map[regionKey]bool {
	counts := make(map[regionKey]int)
	for _, d := range datasets {
		seen := make(map[regionKey]bool, len(d.Inputs))
		for _, in := range d.Inputs {
			k := regionKey{in.Region.Addr, in.Region.Len}
			if !seen[k] {
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
		for k := range counts {
			replicated[k] = true
		}
		return replicated
	}
	need := threshold * float64(len(datasets))
	for k, c := range counts {
		if c >= 2 && float64(c) >= need {
			replicated[k] = true
		}
	}
	return replicated
}

// referenceBuildJobsets is first-fit greedy placement with each jobset
// grown by append.
func referenceBuildJobsets(regions [][]mem.Region, extra func(i, j int) bool) (jobsets [][]int, pairs int) {
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

// referencePlan materializes replicas in (addr, len) key order with the
// executors inner, then builds the conflict graph and jobsets.
func (r *Runtime) referencePlan(spec *Spec) (*referenceAnalysis, error) {
	a := &referenceAnalysis{
		replicated: referenceDetectCommon(spec.Datasets, r.cfg.ReplicationThreshold),
		replicas:   make([]map[regionKey]uint64, r.cfg.Executors),
	}
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
	a.conflictRegions = make([][]mem.Region, len(spec.Datasets))
	for i, d := range spec.Datasets {
		for _, in := range d.Inputs {
			if !a.replicated[regionKey{in.Region.Addr, in.Region.Len}] {
				a.conflictRegions[i] = append(a.conflictRegions[i], in.Region)
			}
		}
	}
	a.jobsets, a.conflictPairs = referenceBuildJobsets(a.conflictRegions, spec.ExtraConflict)
	return a, nil
}

// executorRegion resolves the region executor e reads for an input
// through the replica maps.
func (a *referenceAnalysis) executorRegion(e int, in InputRef) mem.Region {
	k := regionKey{in.Region.Addr, in.Region.Len}
	if a.replicated[k] {
		return mem.Region{Addr: a.replicas[e][k], Len: in.Region.Len}
	}
	return in.Region
}
