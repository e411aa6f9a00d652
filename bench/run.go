package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runner measures workloads by starting child processes of this binary.
type runner struct {
	exe     string // this binary
	seed    int64
	seconds float64 // timed phase of one workload run
	// Least repetitions of an untraced cold workload and least replays
	// of an untraced warm one, even past the timed phase's budget.
	reps, replays int
	toy           bool
	outDir        string
	goldens       goldens
	spec          benchSpec
}

// child runs one child process to completion and returns its report and
// how long the process took from start to exit.
func (r *runner) child(a childArgs) (childReport, time.Duration, error) {
	var rep childReport
	var stdout bytes.Buffer
	cmd := exec.Command(r.exe, childFlags(a)...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	took := time.Since(start)
	if err != nil {
		return rep, took, fmt.Errorf("%s %s child: %w", a.workload.name, a.phase, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, took, fmt.Errorf("%s %s child report: %w", a.workload.name, a.phase, err)
	}
	return rep, took, nil
}

// run measures one workload: set-up several times, then repetitions
// until the timed phase's budget is spent, then, when traced, the probe.
// Untraced runs yield the end-to-end metrics; traced runs alternate
// untraced and traced repetitions and yield the per-layer metrics.
func (r *runner) run(w workload, traced bool) (workloadResult, traceFile, error) {
	res := workloadResult{Workload: w.name, Traced: traced,
		Metrics: map[string]summary{}, Diagnostics: map[string]summary{}}
	var tf traceFile
	tmp, err := os.MkdirTemp(r.outDir, "tmp-")
	if err != nil {
		return res, tf, err
	}
	defer os.RemoveAll(tmp)
	base := childArgs{workload: w, seed: r.seed, toy: r.toy}

	// Set-up: a warm workload's fills a fresh store, which takes seconds,
	// three times. A cold workload's is a process start, a few
	// milliseconds, so it is taken in batches before the timed phase and
	// after each repetition; the median then spans the run's host
	// conditions, not one instant of them.
	var setupS []float64
	var fills []passResult
	setup := func(n int) error {
		for k := 0; k < n; k++ {
			a := base
			a.phase, a.store = "setup", filepath.Join(tmp, fmt.Sprintf("store-%d", len(setupS)))
			rep, took, err := r.child(a)
			if err != nil {
				return err
			}
			setupS = append(setupS, took.Seconds())
			fills = append(fills, rep.Passes...)
		}
		return nil
	}
	batch := 8
	if w.warm {
		batch = 3
	}
	if err := setup(batch); err != nil {
		return res, tf, err
	}

	// Timed phase: stop before a repetition that would overrun the
	// budget, but take the least repetitions asked for, or in a traced
	// run one of each kind.
	least, replays := max(r.reps, 1), r.replays
	if traced {
		least, replays = 2, 2
	}
	var passes []passResult
	var rss []float64
	start := time.Now()
	if w.warm {
		a := base
		a.phase, a.trace, a.store, a.seconds, a.least = "rep", traced, filepath.Join(tmp, "store-0"), r.seconds, replays
		rep, _, err := r.child(a)
		if err != nil {
			return res, tf, err
		}
		passes, rss = rep.Passes, []float64{rep.PeakRSSMB}
	} else {
		var last time.Duration
		for i := 0; ; i++ {
			if i >= least && time.Since(start)+last > time.Duration(r.seconds*float64(time.Second)) {
				break
			}
			a := base
			a.phase, a.trace = "rep", traced && i%2 == 1
			rep, took, err := r.child(a)
			if err != nil {
				return res, tf, err
			}
			last = took
			passes = append(passes, rep.Passes...)
			rss = append(rss, rep.PeakRSSMB)
			if err := setup(batch); err != nil {
				return res, tf, err
			}
		}
	}

	res.Attempted, res.Failed, res.Failures = r.check(w, fills, passes)
	res.Correct = res.Failed == 0
	res.Modelled = passes[0].Modelled
	res.Diagnostics["peak_rss_mb"] = summarize("MB", rss)
	res.Diagnostics["fail_frac"] = summarize("ratio", []float64{float64(res.Failed) / float64(res.Attempted)})

	untraced, tracedPasses := splitPasses(passes)
	res.Diagnostics["wall_s"] = summarize("s", field(untraced, func(p passResult) float64 { return p.WallS }))
	res.Diagnostics["cpu_s"] = summarize("s", field(untraced, func(p passResult) float64 { return p.CPUS }))
	res.Diagnostics["alloc_gb"] = summarize("GB", field(untraced, func(p passResult) float64 { return p.AllocGB }))
	perCampaign(res.Diagnostics, untraced)
	if w.warm {
		replayTail(res.Diagnostics, untraced)
	}
	vals := map[string][]float64{
		"setup_s":  setupS,
		"allocs_m": field(untraced, func(p passResult) float64 { return p.AllocsM }),
	}
	specs := r.spec.EndToEnd
	var probe *probeResult
	if traced {
		arms := int(quantile(counterValues(tracedPasses, "sched_trials_total"), 2))
		a := base
		a.phase, a.store, a.arms = "probe", filepath.Join(tmp, "probe-store"), max(arms, 1)
		if w.warm && fills[0].StoreEntries > 0 {
			a.payload = int(fills[0].StoreBytes) / fills[0].StoreEntries
		}
		rep, _, err := r.child(a)
		if err != nil {
			return res, tf, err
		}
		probe = rep.Probe
		vals = layerValues(untraced, tracedPasses, probe)
		specs = r.spec.PerLayer
	}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return res, tf, fmt.Errorf("metric %s is in BENCHMARK.json but not measured", m.Name)
		}
		res.Metrics[m.Name] = summarize(m.Unit, v)
	}
	if traced {
		tf = newTraceFile(w, r.seed, tracedPasses, probe, res.Metrics)
	}
	return res, tf, nil
}

func splitPasses(passes []passResult) (untraced, traced []passResult) {
	for _, p := range passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced
}

func field(passes []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// check counts operations and failures. An operation is one campaign
// call of a cold pass or a store fill, or one warm replay. A call fails
// when it errors or its table's hash differs from the golden for the
// seed; seeds without goldens compare every pass with the first. A
// replay also fails when any lookup missed the store.
func (r *runner) check(w workload, fills, passes []passResult) (attempted, failed int, failures []string) {
	want := map[string]string{}
	if !r.toy {
		for name, h := range r.goldens[r.seed] {
			want[name] = h
		}
	}
	callOK := func(c callResult) string {
		switch h, ok := want[c.Name]; {
		case c.Err != "":
			return c.Name + ": " + c.Err
		case !ok:
			want[c.Name] = c.Hash
		case h != c.Hash:
			return c.Name + ": table hash " + c.Hash[:12] + " differs from " + h[:min(12, len(h))]
		}
		return ""
	}
	fail := func(why string) {
		failed++
		failures = append(failures, why)
	}
	for _, p := range fills {
		for _, c := range p.Calls {
			attempted++
			if why := callOK(c); why != "" {
				fail("set-up " + why)
			}
		}
	}
	for i, p := range passes {
		if w.warm {
			attempted++
			var whys []string
			for _, c := range p.Calls {
				if why := callOK(c); why != "" {
					whys = append(whys, why)
				}
			}
			if p.Misses > 0 {
				whys = append(whys, fmt.Sprintf("%d result-store misses", p.Misses))
			}
			if len(whys) > 0 {
				fail(fmt.Sprintf("replay %d: %s", i, strings.Join(whys, "; ")))
			}
			continue
		}
		for _, c := range p.Calls {
			attempted++
			if why := callOK(c); why != "" {
				fail(fmt.Sprintf("pass %d %s", i, why))
			}
		}
	}
	return attempted, failed, failures
}

// perCampaign records each campaign call's median host time.
func perCampaign(diag map[string]summary, passes []passResult) {
	secs := map[string][]float64{}
	for _, p := range passes {
		for _, c := range p.Calls {
			secs[c.Name] = append(secs[c.Name], c.Seconds)
		}
	}
	for name, v := range secs {
		diag["experiments."+name+"_s"] = summarize("s", v)
	}
}

// replayTail records the replay latency median and the highest of the
// usual percentiles with at least ten samples beyond it.
func replayTail(diag map[string]summary, passes []passResult) {
	ms := field(passes, func(p passResult) float64 { return p.WallS * 1e3 })
	sort.Float64s(ms)
	diag["replay_p50_ms"] = summarize("ms", []float64{ms[len(ms)/2]})
	for _, q := range []float64{0.999, 0.99, 0.98, 0.95, 0.9} {
		if float64(len(ms))*(1-q) >= 10 {
			diag[fmt.Sprintf("replay_p%g_ms", q*100)] = summarize("ms", []float64{ms[int(q*float64(len(ms)-1))]})
			return
		}
	}
}

// counterValues is a counter's value in each traced pass.
func counterValues(passes []passResult, name string) []float64 {
	var out []float64
	for _, p := range passes {
		v := 0.0
		for _, c := range p.Counters {
			if c.Name == name {
				v = float64(c.Value)
			}
		}
		out = append(out, v)
	}
	return out
}
