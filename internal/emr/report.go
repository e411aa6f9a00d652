package emr

import (
	"fmt"
	"time"

	"radshield/internal/cache"
	"radshield/internal/fault"
)

// Report is the full accounting of one Run: the paper's Table 6 runtime
// breakdown, the Figure 11/12 runtimes, the Figure 13 memory numbers,
// and the Figure 14 energy numbers all come from here.
type Report struct {
	Scheme   fault.Scheme
	Frontier Frontier

	// Structure of the run.
	Datasets          int
	Jobsets           int
	ConflictPairs     int
	ReplicatedRegions int
	ReplicaBytes      uint64
	InputBytes        uint64
	OutputBytes       uint64
	PeakMemoryBytes   uint64

	// Outcomes.
	Votes      VoteStats
	ExecErrors int

	// Virtual-time breakdown (Table 6 rows).
	DiskReadTime time.Duration
	AllocTime    time.Duration
	ComputeTime  time.Duration
	FlushTime    time.Duration
	Makespan     time.Duration // total elapsed (sum of phases)

	// Energy model inputs and result.
	CoreBusy time.Duration // summed busy time across executor cores
	EnergyJ  float64

	CacheStats cache.Stats
}

// String renders the report as a Table 6-style breakdown.
func (r Report) String() string {
	return fmt.Sprintf(
		"%v/%v: datasets=%d jobsets=%d conflicts=%d replicas=%dB\n"+
			"  disk=%v alloc=%v compute=%v flush=%v total=%v\n"+
			"  votes: unanimous=%d corrected=%d failed=%d execErrors=%d\n"+
			"  energy=%.2fJ coreBusy=%v peakMem=%dB",
		r.Scheme, r.Frontier, r.Datasets, r.Jobsets, r.ConflictPairs, r.ReplicaBytes,
		r.DiskReadTime, r.AllocTime, r.ComputeTime, r.FlushTime, r.Makespan,
		r.Votes.Unanimous, r.Votes.Corrected, r.Votes.Failed, r.ExecErrors,
		r.EnergyJ, r.CoreBusy, r.PeakMemoryBytes)
}

// visitParts decomposes one executor-visit's virtual time.
type visitParts struct {
	compute time.Duration
	fetch   time.Duration
	flush   time.Duration
}

func (v visitParts) total() time.Duration { return v.compute + v.fetch + v.flush }

// parts computes the virtual time of one visit: compute over all input
// bytes, frontier fetch of the shared (non-replicated) bytes, and the
// flush of the given line count.
func (r *Runtime) parts(spec *Spec, totalBytes, fetchedBytes uint64, lines int) visitParts {
	fetchBW := dramBytesPerSec
	if r.cfg.Frontier == FrontierStorage {
		fetchBW = diskBytesPerSec
	}
	return visitParts{
		compute: time.Duration(float64(totalBytes) * spec.CyclesPerByte / coreFreqHz * float64(time.Second)),
		fetch:   time.Duration(float64(fetchedBytes) / fetchBW * float64(time.Second)),
		flush:   time.Duration(lines) * flushLineCost,
	}
}

// accounting accumulates virtual time and outcome counters during a run.
type accounting struct {
	diskRead time.Duration
	alloc    time.Duration
	compute  time.Duration
	fetch    time.Duration
	flush    time.Duration
	makespan time.Duration // excludes staging (diskRead/alloc), added in finish
	busy     time.Duration

	votes       VoteStats
	outputBytes uint64
	analysis    *analysis
}

// newAccounting charges the setup phases: staging inputs from disk and
// materializing replicas.
func (r *Runtime) newAccounting(spec *Spec, a *analysis) *accounting {
	acct := &accounting{analysis: a}
	acct.diskRead = time.Duration(float64(r.diskLoaded) / diskBytesPerSec * float64(time.Second))
	if a != nil && a.replicaBytes > 0 {
		// Replicas: read the canonical copy once and write E copies.
		acct.alloc = time.Duration(float64(a.replicaBytes)/allocBytesPerSec*float64(time.Second)) +
			time.Duration(float64(a.replicaBytes)/float64(r.cfg.Executors)/dramBytesPerSec*float64(time.Second))
	}
	// Output scratch allocation is charged per byte in finish (outputs
	// are not known yet).
	return acct
}

// addJobsetMakespan folds one jobset's visits into the totals. visits
// holds every executor-visit of the jobset (k datasets × ex executors).
// The jobset's elapsed time is the open-shop makespan lower bound, which
// the staggered round-robin schedule achieves to first order:
//
//	max( per-executor work, ex × costliest dataset visit )
//
// The second term is what serializes conflict-heavy workloads: a jobset
// of one dataset must run its redundant copies back to back (degenerating
// to sequential 3-MR, as the paper notes for 0% replication).
func (a *accounting) addJobsetMakespan(visits []visitParts, k, ex int) {
	if len(visits) == 0 {
		return
	}
	var sum visitParts
	var sumTotal, maxTotal time.Duration
	for _, v := range visits {
		sum.compute += v.compute
		sum.fetch += v.fetch
		sum.flush += v.flush
		sumTotal += v.total()
		if v.total() > maxTotal {
			maxTotal = v.total()
		}
	}
	perExec := sumTotal / time.Duration(ex)
	makespan := perExec
	if m := time.Duration(ex) * maxTotal; m > makespan {
		makespan = m
	}
	a.makespan += makespan
	a.busy += sumTotal
	// Attribute the jobset's elapsed time across categories in
	// proportion to the per-executor shares.
	if sumTotal > 0 {
		scale := float64(makespan) / float64(perExec)
		a.compute += time.Duration(float64(sum.compute) / float64(ex) * scale)
		a.fetch += time.Duration(float64(sum.fetch) / float64(ex) * scale)
		a.flush += time.Duration(float64(sum.flush) / float64(ex) * scale)
	}
}

// addVisit folds one serial visit (non-EMR schemes) into the category
// totals. Callers add to makespan/busy themselves, since lockstep
// parallelism differs per scheme.
func (a *accounting) addVisit(v visitParts) {
	a.compute += v.compute
	a.fetch += v.fetch
	a.flush += v.flush
}

// finish assembles the Report.
func (a *accounting) finish(r *Runtime, base Report) Report {
	rep := base
	rep.Scheme = r.cfg.Scheme
	rep.Frontier = r.cfg.Frontier
	rep.Votes = a.votes
	rep.InputBytes = r.inputBytes
	rep.OutputBytes = a.outputBytes
	if a.analysis != nil {
		rep.ReplicatedRegions = len(a.analysis.replicated)
		rep.ReplicaBytes = a.analysis.replicaBytes
	}
	rep.PeakMemoryBytes = r.inputBytes + rep.ReplicaBytes + a.outputBytes*uint64(r.cfg.Executors)

	// Output scratch allocation cost.
	scratch := time.Duration(float64(a.outputBytes) * float64(r.cfg.Executors) / allocBytesPerSec * float64(time.Second))
	rep.AllocTime = a.alloc + scratch
	rep.DiskReadTime = a.diskRead
	rep.FlushTime = a.flush
	// Fetch time lands under Disk Read for a storage frontier (the bytes
	// stream from flash) and under Compute otherwise (DRAM stalls).
	if r.cfg.Frontier == FrontierStorage {
		rep.DiskReadTime += a.fetch
		rep.ComputeTime = a.compute
	} else {
		rep.ComputeTime = a.compute + a.fetch
	}
	// Staging (disk load, replica/output allocation) happens before and
	// around execution, serial with it; in-run fetch is already inside
	// a.makespan.
	rep.Makespan = a.makespan + a.diskRead + rep.AllocTime
	rep.CoreBusy = a.busy
	rep.EnergyJ = float64(IdleWatts*rep.Makespan.Seconds()) + float64(coreWatts*a.busy.Seconds())
	rep.CacheStats = r.cache.Stats()
	rep.Datasets = base.Datasets
	r.ins.finishRun(r, rep)
	return rep
}
