package emr

import (
	"bytes"
	"fmt"
	"time"

	"radshield/internal/cache"
	"radshield/internal/fault"
	"radshield/internal/mem"
)

// cacheLineSize aliases the cache geometry for fetch accounting.
const cacheLineSize = cache.LineSize

// Phase marks where in a job's lifecycle a hook fires.
type Phase int

const (
	// PhaseBeforeRead fires before an executor fetches its input regions
	// — flips injected here land in whatever the cache currently holds.
	PhaseBeforeRead Phase = iota
	// PhaseAfterRead fires once the executor's input lines are resident
	// in the shared cache but before the job consumes them — the window
	// in which a cache SEU corrupts the data an executor computes on.
	// Under EMR's flush discipline only this executor is reading those
	// lines; under unprotected parallel 3-MR the same lines feed every
	// executor.
	PhaseAfterRead
	// PhaseAfterJob fires after an executor computed its output but
	// before it is recorded; hooks may corrupt Output (modelling a
	// pipeline SEU) or set Fail (modelling a corrupted job descriptor —
	// the paper's segfault case).
	PhaseAfterJob
)

// HookPoint is the context handed to a fault-injection hook. It belongs
// to the runtime and is valid only during the hook call: each executor
// reuses one hook point, Regions included, for every phase of every
// visit, so a hook copies out whatever it keeps.
type HookPoint struct {
	Phase    Phase
	Dataset  int
	Executor int
	// Regions are the input regions this executor will read / has read,
	// with replicas resolved to their private addresses.
	Regions []mem.Region
	// Output is the executor's freshly computed output (PhaseAfterJob
	// only); hooks may mutate it in place or replace it. Its capacity
	// ends at its length, so an append copies it.
	Output []byte
	// Fail, when set by the hook, aborts this executor's job with the
	// given error.
	Fail error
	// Stall, when set by the hook, adds virtual elapsed time to this
	// visit — modelling a replica that hangs (an irradiated core stuck
	// in a livelock) rather than computing wrong bytes. Stall composes
	// with Fail: a replica can hang and then crash. A configured Watcher
	// sees the stalled elapsed time and may kill the visit.
	Stall time.Duration
}

// Hook observes and perturbs execution at defined points. A nil hook is
// a no-op. Hooks run synchronously; execution is deterministic. The
// *HookPoint is valid only until the hook returns.
type Hook func(*HookPoint)

// Spec describes one computation: the datasets, the job function, and
// its cost characteristics (paper Figure 7's InputData + job function +
// dtss_compute triple).
type Spec struct {
	Name     string
	Datasets []Dataset
	Job      JobFunc
	// CyclesPerByte models the job's compute intensity for the virtual
	// clock (e.g. ≈20 for AES, hundreds for DNN inference).
	CyclesPerByte float64
	// ExtraConflict lets developers declare algorithm-specific conflicts
	// EMR cannot see in the memory regions (paper §3.2).
	ExtraConflict func(i, j int) bool
	// Hook receives fault-injection callbacks.
	Hook Hook
}

// VoteStats counts voting outcomes across a run's datasets.
type VoteStats struct {
	Unanimous int // all executors agreed
	Corrected int // one executor outvoted (error masked)
	Failed    int // no majority / too few valid outputs
}

// DatasetResult is the per-dataset outcome.
type DatasetResult struct {
	Output       []byte
	Err          error
	Disagreement bool // executors disagreed (even if corrected)
}

// Result is what Run returns. Its outputs live in the executors' output
// buffers, which no later Run or Reset writes over, so they stay valid
// and unchanged for as long as the caller keeps them.
type Result struct {
	Outputs    [][]byte // voted output per dataset (nil on failure)
	PerDataset []DatasetResult
	Report     Report
}

// errVoteFailed is the dataset error when voting finds no majority.
var errVoteFailed = fmt.Errorf("emr: executors disagree with no majority")

// Run executes the spec under the runtime's scheme and returns outputs
// plus the full accounting report. Execution is deterministic: redundant
// copies are interleaved in a fixed schedule whose parallel makespan is
// accounted by the virtual cost model.
func (r *Runtime) Run(spec Spec) (*Result, error) {
	if len(spec.Datasets) == 0 {
		return nil, fmt.Errorf("emr: Run(%q): no datasets", spec.Name)
	}
	if spec.Job == nil {
		return nil, fmt.Errorf("emr: Run(%q): nil job function", spec.Name)
	}
	if spec.CyclesPerByte <= 0 {
		return nil, fmt.Errorf("emr: Run(%q): CyclesPerByte (%v) must be positive", spec.Name, spec.CyclesPerByte)
	}

	visitors := r.cfg.Executors
	if r.cfg.Scheme == fault.SchemeNone || r.cfg.Scheme == fault.SchemeChecksum {
		visitors = 1 // one pass on executor 0
	}
	r.sizeScratch(spec.Datasets, visitors)

	switch r.cfg.Scheme {
	case fault.SchemeEMR:
		if r.cfg.CacheECC {
			// Cache ECC closes the shared-cache hazard in hardware; the
			// paper's prescription is to revert to plain parallel 3-MR.
			return r.runUnprotected(&spec)
		}
		return r.runEMR(&spec)
	case fault.SchemeUnprotectedParallel:
		return r.runUnprotected(&spec)
	case fault.SchemeSerial3MR:
		return r.runSerial(&spec)
	case fault.SchemeNone, fault.SchemeChecksum:
		return r.runOnce(&spec)
	default:
		return nil, fmt.Errorf("emr: unknown scheme %v", r.cfg.Scheme)
	}
}

// visitIO summarizes one visit's data movement for the cost model.
type visitIO struct {
	total   uint64        // bytes the job consumed (drives compute time)
	fetched uint64        // bytes actually fetched from the frontier (cache misses × line size)
	stall   time.Duration // hook-injected hang time (HookPoint.Stall)
}

// Watcher observes every executor visit as it completes — the guard
// watchdog's attachment point (see internal/guard). VisitDone receives
// the visit's virtual elapsed time (compute + fetch + flush + any
// hook-injected stall) and the visit's error; it returns the duration
// to charge to the accounting (a killed hung visit is billed only up to
// its deadline) and the error to record in the vote (non-nil
// invalidates the visit's output). Watchers are invoked once a round's
// visits are done, in (jobset, round, executor) order.
type Watcher interface {
	VisitDone(executor, dataset int, elapsed time.Duration, visitErr error) (time.Duration, error)
}

// watchVisit reports one finished visit to the configured watcher and
// applies its verdict. With no watcher the visit passes through
// untouched.
func (r *Runtime) watchVisit(executor, dataset int, v visitParts, visitErr error) (visitParts, error) {
	if r.cfg.Watch == nil {
		return v, visitErr
	}
	charged, err := r.cfg.Watch.VisitDone(executor, dataset, v.total(), visitErr)
	if d := charged - v.total(); d != 0 {
		v.compute += d
	}
	return v, err
}

// visitScratch is one executor's reusable visit state: the dataset's
// resolved regions, the job's input headers, one byte buffer per input
// slot, the hook point, and the output buffer. build makes one per
// executor and a runtime's first Run sizes them (sizeScratch), so each
// executor keeps buffers sized to the inputs it reads.
type visitScratch struct {
	regions []mem.Region
	inputs  [][]byte
	bufs    [][]byte
	hp      HookPoint
	// out holds the executor's recorded outputs back to back; its free
	// tail is the next job's dst. It only ever advances, and a full
	// buffer is replaced, never rewound, so no later visit or Run writes
	// over a recorded output.
	out []byte
}

// sizeScratch sizes the first visitors executors' scratch for every
// dataset at once when the runtime has none yet: header slices with
// room for the most inputs any dataset has, and per input slot a buffer
// as long as the longest region that slot reads, all executors' buffers
// cut from one byte slab. It sizes once per runtime; visit grows a
// buffer for a later spec that needs more.
func (r *Runtime) sizeScratch(datasets []Dataset, visitors int) {
	if r.scratch[0].bufs != nil {
		return
	}
	var stack [8]uint64
	slots := stack[:0] // the longest region each input slot reads
	for _, d := range datasets {
		for i, in := range d.Inputs {
			if i == len(slots) {
				slots = append(slots, 0)
			}
			slots[i] = max(slots[i], in.Region.Len)
		}
	}
	var perVisitor uint64
	for _, n := range slots {
		perVisitor += n
	}
	m := len(slots)
	slab := make([]byte, uint64(visitors)*perVisitor)
	regions := make([]mem.Region, visitors*m)
	views := make([][]byte, 2*visitors*m) // each visitor's inputs, then its bufs
	for e := range visitors {
		s := &r.scratch[e]
		s.regions = regions[e*m : e*m : (e+1)*m]
		in := views[2*e*m : (2*e+2)*m]
		s.inputs, s.bufs = in[:0:m], in[m:2*m:2*m]
		for i, n := range slots {
			s.bufs[i], slab = slab[:n:n], slab[n:]
		}
	}
}

// keep records a job's output: it advances the executor's buffer past
// an output that landed in dst, the buffer's free tail, and when the
// output outgrew the tail it starts a buffer with room for one output
// of this size per dataset. The returned output is capacity-limited, so
// neither a hook's append nor the executor's next job can write past it
// into another dataset's output.
func (s *visitScratch) keep(out, dst []byte, datasets int) []byte {
	n := len(out)
	switch {
	case n == 0:
	case n <= cap(dst) && &out[0] == &dst[:1][0]:
		s.out = s.out[:len(s.out)+n]
	case n > cap(dst):
		s.out = make([]byte, 0, n*datasets)
	}
	return out[:n:n]
}

// visit performs one executor's processing of one dataset: resolve
// regions, fire the pre-read hook, fetch bytes through the shared cache,
// run the job, fire the post-job hook. It returns the output, the IO
// summary, and an error if the job failed. Fetch volume comes from the
// cache's real miss count, so schemes that keep data resident
// (unprotected sharing, per-pass reuse, replicas) are charged less than
// EMR's deliberate flush-and-refetch — exactly the trade the paper
// measures. A nil plan reads every input at its frontier region; a
// non-nil checksum store verifies the consumed bytes before the job
// runs (the checksum scheme's read-path guard).
func (r *Runtime) visit(spec *Spec, a *analysis, sums *checksumStore, dsIdx, executor int) (out []byte, io visitIO, err error) {
	ds := spec.Datasets[dsIdx]
	s := &r.scratch[executor]
	s.regions = s.regions[:0]
	for i, in := range ds.Inputs {
		reg := in.Region
		if a != nil {
			reg = a.executorRegion(executor, dsIdx, i, reg)
		}
		s.regions = append(s.regions, reg)
	}
	// fire runs the hook at one phase on the executor's hook point and
	// reports whether the visit may go on.
	fire := func(phase Phase) bool {
		s.hp = HookPoint{Phase: phase, Dataset: dsIdx, Executor: executor, Regions: s.regions, Output: out}
		spec.Hook(&s.hp)
		io.stall += s.hp.Stall
		if s.hp.Fail != nil {
			r.ins.hookAbort()
			return false
		}
		return true
	}
	if spec.Hook != nil && !fire(PhaseBeforeRead) {
		return nil, io, s.hp.Fail
	}
	// First pass: fetch the input lines into the shared cache. This
	// establishes residency; the bytes the job actually consumes are read
	// in the second pass, so an upset striking the cached lines in
	// between (PhaseAfterRead) corrupts what this executor computes on —
	// the realistic compute-time vulnerability window.
	missesBefore := r.cache.Stats().Misses
	s.inputs = s.inputs[:0]
	for i, reg := range s.regions {
		if i == len(s.bufs) {
			s.bufs = append(s.bufs, nil)
		}
		if uint64(cap(s.bufs[i])) < reg.Len {
			s.bufs[i] = make([]byte, reg.Len)
		}
		buf := s.bufs[i][:reg.Len:reg.Len]
		if err := r.cache.Read(reg.Addr, buf); err != nil {
			// An uncorrectable ECC machine check is a detected error.
			return nil, io, fmt.Errorf("emr: executor %d reading %q: %w", executor, ds.Inputs[i].Name, err)
		}
		s.inputs = append(s.inputs, buf)
		io.total += reg.Len
	}
	io.fetched = (r.cache.Stats().Misses - missesBefore) * cacheLineSize
	r.ins.visit(io.fetched)
	if spec.Hook != nil {
		if !fire(PhaseAfterRead) {
			return nil, io, s.hp.Fail
		}
		// Second pass: re-read through the cache so injected line upsets
		// reach the job. Skipped when no hook is installed — the reread
		// is observationally identical then.
		for i, reg := range s.regions {
			if err := r.cache.Read(reg.Addr, s.inputs[i]); err != nil {
				return nil, io, fmt.Errorf("emr: executor %d re-reading %q: %w", executor, ds.Inputs[i].Name, err)
			}
		}
	}
	if err := r.verifyChecksums(sums, ds, dsIdx, s.inputs); err != nil {
		return nil, io, err
	}
	dst := s.out[len(s.out):]
	if out, err = spec.Job(dst, s.inputs); err != nil {
		return nil, io, err
	}
	out = s.keep(out, dst, len(spec.Datasets))
	if spec.Hook != nil {
		if !fire(PhaseAfterJob) {
			return nil, io, s.hp.Fail
		}
		out = s.hp.Output
	}
	return out, io, nil
}

// flushShared invalidates the cached lines of a dataset's non-replicated
// regions and returns the number of lines flushed.
func (r *Runtime) flushShared(a *analysis, dsIdx int) int {
	lines := 0
	for _, reg := range a.conflictRegions[dsIdx] {
		lines += r.cache.FlushRange(reg.Addr, reg.Len)
	}
	r.ins.flush(lines)
	return lines
}

// runEMR executes under the conflict-aware scheme: jobsets run with the
// executors staggered so no two redundant copies of the same dataset are
// ever in flight together, and each visit flushes its shared lines.
func (r *Runtime) runEMR(spec *Spec) (*Result, error) {
	a, err := r.plan(spec)
	if err != nil {
		return nil, err
	}
	n := len(spec.Datasets)
	ex := r.cfg.Executors
	acct := r.newAccounting(spec, a)
	outputs := make([][]byte, n*ex) // dataset-major: outputs[d*ex+e]
	errs := make([]error, n*ex)
	type visitResult struct {
		out   []byte
		io    visitIO
		lines int
		err   error
	}
	results := make([]visitResult, ex)
	largest := 0
	for _, set := range a.jobsets {
		largest = max(largest, len(set))
	}
	visits := make([]visitParts, 0, largest*ex)
	for _, set := range a.jobsets {
		k := len(set)
		visits = visits[:0]
		// Stagger starting positions so executors occupy distinct
		// datasets each round (for k ≥ ex the offsets are distinct).
		for t := 0; t < k; t++ {
			for e := 0; e < ex; e++ {
				d := set[(t+e*k/ex)%k]
				out, io, err := r.visit(spec, a, nil, d, e)
				results[e] = visitResult{out: out, io: io, lines: r.flushShared(a, d), err: err}
			}
			for e := 0; e < ex; e++ {
				d := set[(t+e*k/ex)%k]
				res := results[e]
				v := r.parts(spec, res.io.total, res.io.fetched, res.lines)
				v.compute += res.io.stall
				v, verr := r.watchVisit(e, d, v, res.err)
				visits = append(visits, v)
				outputs[d*ex+e] = res.out
				errs[d*ex+e] = verr
			}
		}
		acct.addJobsetMakespan(visits, k, ex)
	}

	res := r.vote(outputs, errs, ex, acct)
	res.Report.Jobsets = len(a.jobsets)
	res.Report.ConflictPairs = a.conflictPairs
	return res, nil
}

// runUnprotected executes parallel 3-MR without cache discipline: the
// redundant copies of each dataset run simultaneously sharing the cache,
// and nothing is flushed.
func (r *Runtime) runUnprotected(spec *Spec) (*Result, error) {
	n := len(spec.Datasets)
	ex := r.cfg.Executors
	acct := r.newAccounting(spec, nil)
	outputs := make([][]byte, n*ex)
	errs := make([]error, n*ex)
	for d := 0; d < n; d++ {
		var total, fetched uint64
		var extra time.Duration // lockstep: the slowest copy gates the round
		for e := 0; e < ex; e++ {
			out, io, err := r.visit(spec, nil, nil, d, e)
			base := r.parts(spec, io.total, io.fetched, 0)
			ve := base
			ve.compute += io.stall
			ve, err = r.watchVisit(e, d, ve, err)
			if adj := ve.total() - base.total(); adj > extra {
				extra = adj
			}
			outputs[d*ex+e] = out
			errs[d*ex+e] = err
			total = io.total
			fetched += io.fetched // later copies mostly hit the shared lines
		}
		// All copies run in lockstep on separate cores: elapsed is one
		// visit's compute plus the (shared) fetch.
		v := r.parts(spec, total, fetched, 0)
		v.compute += extra
		acct.addVisit(v)
		acct.makespan += v.total()
		acct.busy += time.Duration(ex)*v.compute + v.fetch
	}
	return r.vote(outputs, errs, ex, acct), nil
}

// runSerial executes classic sequential 3-MR: one full pass over all
// datasets per executor on one core, with a full cache clear after
// each pass.
func (r *Runtime) runSerial(spec *Spec) (*Result, error) {
	n := len(spec.Datasets)
	ex := r.cfg.Executors
	acct := r.newAccounting(spec, nil)
	// Each pass re-stages inputs from disk (the paper's Table 6 charges
	// serial 3-MR three disk reads).
	acct.diskRead = time.Duration(float64(ex) * float64(r.diskLoaded) / diskBytesPerSec * float64(time.Second))
	outputs := make([][]byte, n*ex)
	errs := make([]error, n*ex)
	for e := 0; e < ex; e++ {
		r.runPass(spec, nil, e, ex, acct, outputs, errs)
		flushDur := time.Duration(r.cache.FlushAll()) * flushLineCost
		acct.makespan += flushDur
		acct.flush += flushDur
		acct.busy += flushDur
	}
	return r.vote(outputs, errs, ex, acct), nil
}

// runOnce executes every dataset once with no redundancy: the bare
// SchemeNone run, or, under SchemeChecksum, the same pass verifying
// every input region's CRC over the bytes the cache delivers.
func (r *Runtime) runOnce(spec *Spec) (*Result, error) {
	var sums *checksumStore
	if r.cfg.Scheme == fault.SchemeChecksum {
		// Baseline CRCs come from the pristine frontier contents at run
		// start: the guard's "recompute on write" bookkeeping.
		var err error
		if sums, err = r.checksumDatasets(spec); err != nil {
			return nil, err
		}
	}
	n := len(spec.Datasets)
	acct := r.newAccounting(spec, nil)
	outputs := make([][]byte, n)
	errs := make([]error, n)
	r.runPass(spec, sums, 0, 1, acct, outputs, errs)
	return r.vote(outputs, errs, 1, acct), nil
}

// runPass visits every dataset once, in order, on executor e, charging
// each visit to acct back to back on one core and recording its output
// and error at outputs[d*ex+e]. A non-nil checksum store verifies each
// visit's inputs, and its maintenance is charged as one more pass over
// the consumed bytes at memory bandwidth.
func (r *Runtime) runPass(spec *Spec, sums *checksumStore, e, ex int, acct *accounting, outputs [][]byte, errs []error) {
	for d := range spec.Datasets {
		out, io, err := r.visit(spec, nil, sums, d, e)
		v := r.parts(spec, io.total, io.fetched, 0)
		v.compute += io.stall
		v, err = r.watchVisit(e, d, v, err)
		outputs[d*ex+e] = out
		errs[d*ex+e] = err
		acct.addVisit(v)
		elapsed := v.total()
		if sums != nil {
			elapsed += r.parts(spec, 0, io.total, 0).fetch
		}
		acct.makespan += elapsed
		acct.busy += elapsed
	}
}

// vote tallies executor outputs into per-dataset results and writes the
// winning outputs back inside the reliability frontier. outputs and errs
// hold ex entries per dataset, dataset-major; ex is 1 for the
// single-execution schemes.
func (r *Runtime) vote(outputs [][]byte, errs []error, ex int, acct *accounting) *Result {
	n := len(outputs) / ex
	res := &Result{
		Outputs:    make([][]byte, n),
		PerDataset: make([]DatasetResult, n),
	}
	res.Report.Datasets = n
	// One dataset's valid outputs, kept on the stack for up to eight
	// executors.
	var stack [8][]byte
	valid := stack[:0]
	for d := 0; d < n; d++ {
		valid = valid[:0]
		var hadError bool
		for e := 0; e < ex; e++ {
			if errs[d*ex+e] != nil {
				hadError = true
				res.Report.ExecErrors++
				continue
			}
			valid = append(valid, outputs[d*ex+e])
		}
		dr := &res.PerDataset[d]
		switch {
		case ex == 1: // SchemeNone and SchemeChecksum
			if hadError {
				dr.Err = errs[d]
			} else {
				dr.Output = valid[0]
			}
		case len(valid) < 2:
			dr.Err = fmt.Errorf("emr: %d of %d executors failed", ex-len(valid), ex)
			acct.votes.Failed++
		default:
			winner, unanimous, ok := majority(valid)
			switch {
			case !ok:
				dr.Err = errVoteFailed
				dr.Disagreement = true
				acct.votes.Failed++
				r.ins.voteMismatch(d, false)
			case unanimous && !hadError && len(valid) == ex:
				dr.Output = winner
				acct.votes.Unanimous++
			default:
				dr.Output = winner
				dr.Disagreement = !unanimous
				acct.votes.Corrected++
				if !unanimous {
					r.ins.voteMismatch(d, true)
				}
			}
		}
		if dr.Output != nil {
			res.Outputs[d] = dr.Output
			acct.outputBytes += uint64(len(dr.Output))
			// Persist the voted output inside the frontier.
			if addr, err := r.frontierAlloc(uint64(len(dr.Output))); err == nil {
				if werr := r.bus.Write(addr, dr.Output); werr != nil {
					dr.Err = werr
					dr.Output = nil
					res.Outputs[d] = nil
				}
			}
		}
	}
	res.Report = acct.finish(r, res.Report)
	return res
}

// majority finds a value shared by at least two outputs. It returns the
// winner, whether all outputs were identical, and whether a majority
// exists at all.
func majority(valid [][]byte) (winner []byte, unanimous, ok bool) {
	for i := 0; i < len(valid); i++ {
		matches := 1
		for j := 0; j < len(valid); j++ {
			if i != j && bytes.Equal(valid[i], valid[j]) {
				matches++
			}
		}
		if matches >= 2 || len(valid) == 1 {
			return valid[i], matches == len(valid), true
		}
	}
	return nil, false, false
}
