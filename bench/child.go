package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"radshield/internal/emr"
	"radshield/internal/ild"
	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
)

// Every repetition runs in a fresh child process, one at a time, because
// users pay process-level set-up (the EMR runtime pool, heap growth) on
// every campaign run. The parent starts this binary again with the
// "child" subcommand; the child prints one JSON report on stdout.

// callResult is one campaign call of a pass.
type callResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Hash    string  `json:"hash"`
	Err     string  `json:"err,omitempty"`
}

// passResult is one run of a workload's campaign list: a cold pass, a
// store fill, or a warm replay.
type passResult struct {
	Traced   bool               `json:"traced"`
	WallS    float64            `json:"wall_s"`
	CPUS     float64            `json:"cpu_s"`
	AllocGB  float64            `json:"alloc_gb"`
	AllocsM  float64            `json:"allocs_m"`
	Calls    []callResult       `json:"calls"`
	Modelled map[string]float64 `json:"modelled"`
	// Store activity of the pass: lookups that hit and missed, and the
	// store's size and entry count at the end.
	Hits         uint64 `json:"cache_hits"`
	Misses       uint64 `json:"cache_misses"`
	StoreEntries int    `json:"store_entries"`
	StoreBytes   int64  `json:"store_bytes"`
	// Traced passes only.
	Spans    []span                      `json:"spans,omitempty"`
	Counters []telemetry.CounterSnapshot `json:"counters,omitempty"`
}

// childReport is everything one child process measured.
type childReport struct {
	Passes    []passResult `json:"passes"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	Probe     *probeResult `json:"probe,omitempty"`
}

// childArgs is the child's command line.
type childArgs struct {
	phase    string // "setup", "rep" or "probe"
	workload workload
	seed     int64
	toy      bool
	trace    bool    // rep: traced passes (warm replays alternate)
	store    string  // warm workloads: the store directory
	seconds  float64 // warm rep: how long to replay
	least    int     // warm rep: least replays, even past seconds
	arms     int     // probe: scheduler trials of one pass
	payload  int     // probe: result-store payload size
}

// childFlags renders a childArgs as the command line parseChild reads.
func childFlags(a childArgs) []string {
	return []string{"child", a.phase,
		"-workload", a.workload.name,
		"-seed", fmt.Sprint(a.seed),
		fmt.Sprintf("-toy=%v", a.toy),
		fmt.Sprintf("-trace=%v", a.trace),
		"-store", a.store,
		"-seconds", fmt.Sprint(a.seconds),
		"-least", fmt.Sprint(a.least),
		"-arms", fmt.Sprint(a.arms),
		"-payload", fmt.Sprint(a.payload),
	}
}

func parseChild(args []string) (childArgs, error) {
	if len(args) < 1 {
		return childArgs{}, fmt.Errorf("child: missing phase")
	}
	a := childArgs{phase: args[0]}
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	fs.Int64Var(&a.seed, "seed", 1, "")
	fs.BoolVar(&a.toy, "toy", false, "")
	fs.BoolVar(&a.trace, "trace", false, "")
	fs.StringVar(&a.store, "store", "", "")
	fs.Float64Var(&a.seconds, "seconds", 0, "")
	fs.IntVar(&a.least, "least", 0, "")
	fs.IntVar(&a.arms, "arms", 1, "")
	fs.IntVar(&a.payload, "payload", 0, "")
	if err := fs.Parse(args[1:]); err != nil {
		return a, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return a, fmt.Errorf("child: unknown workload %q", *name)
	}
	a.workload = w
	return a, nil
}

// runChild executes one child phase and writes its report to out.
func runChild(args []string, out io.Writer) error {
	a, err := parseChild(args)
	if err != nil {
		return err
	}
	e := env{seed: a.seed, toy: a.toy}
	var rep childReport
	switch {
	case a.phase == "setup" && !a.workload.warm:
		// A cold workload's set-up is the process start and building its
		// campaign configs; there is nothing to fill.
		a.workload.campaigns(e)
	case a.phase == "setup":
		p, err := replay(a.workload, e, a.store, nil)
		if err != nil {
			return err
		}
		rep.Passes = append(rep.Passes, p)
	case a.phase == "rep" && !a.workload.warm:
		var tr *tracer
		if a.trace {
			tr = newTracer(0)
		}
		rep.Passes = append(rep.Passes, pass(a.workload, e, tr))
	case a.phase == "rep":
		// Warm replays run back to back in one process: a replay is the
		// store's Open, the campaign list, and Close. With tracing, every
		// second replay is traced so both kinds see the same conditions,
		// and at least one of each kind runs.
		least := max(a.least, 1)
		if a.trace {
			least = max(least, 2)
		}
		start := time.Now()
		for i := 0; i < least || time.Since(start).Seconds() < a.seconds; i++ {
			var tr *tracer
			if a.trace && i%2 == 1 {
				tr = newTracer(i)
			}
			p, err := replay(a.workload, e, a.store, tr)
			if err != nil {
				return err
			}
			rep.Passes = append(rep.Passes, p)
		}
	case a.phase == "probe":
		p, err := probe(a)
		if err != nil {
			return err
		}
		rep.Probe = p
	default:
		return fmt.Errorf("child: unknown phase %q", a.phase)
	}
	rep.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(out).Encode(rep)
}

// meter snapshots the process's cumulative host costs.
type meter struct {
	wall         time.Time
	cpu          time.Duration
	alloc, count uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, count: ms.Mallocs}
}

// fill sets the pass's host costs to the difference between two meters.
func (p *passResult) fill(from, to meter) {
	p.WallS = to.wall.Sub(from.wall).Seconds()
	p.CPUS = (to.cpu - from.cpu).Seconds()
	p.AllocGB = float64(to.alloc-from.alloc) / 1e9
	p.AllocsM = float64(to.count-from.count) / 1e6
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// attach gives a traced pass its registry, pre-registering the ILD and
// EMR families so every snapshot carries them.
func attach(e env, tr *tracer) env {
	if tr != nil {
		e.tel = telemetry.NewRegistry(telemetry.DefaultEventCap)
		ild.NewInstruments(e.tel)
		emr.PreRegister(e.tel)
	}
	return e
}

// pass runs the workload's campaign list once, measuring host costs
// around the whole list.
func pass(w workload, e env, tr *tracer) passResult {
	e = attach(e, tr)
	camps := w.campaigns(e)
	from := readMeter()
	root := tr.begin("pass", -1)
	p := runCampaigns(camps, tr, root)
	tr.end(root)
	p.fill(from, readMeter())
	p.finish(e, tr)
	return p
}

// replay opens the store at dir, runs the campaign list against it and
// closes it again; the store's Open and Close are part of the replay.
func replay(w workload, e env, dir string, tr *tracer) (passResult, error) {
	e = attach(e, tr)
	from := readMeter()
	root := tr.begin("replay", -1)
	id := tr.begin("resultcache.open", root)
	store, err := resultcache.Open(dir, resultcache.WithTelemetry(e.tel))
	tr.end(id)
	if err != nil {
		return passResult{}, err
	}
	e.store = store
	p := runCampaigns(w.campaigns(e), tr, root)
	st := store.Stats()
	id = tr.begin("resultcache.close", root)
	err = store.Close()
	tr.end(id)
	tr.end(root)
	if err != nil {
		return passResult{}, err
	}
	p.fill(from, readMeter())
	p.Hits, p.Misses = st.Hits, st.Misses
	p.StoreEntries, p.StoreBytes = st.Entries, st.Bytes
	p.finish(e, tr)
	return p, nil
}

// runCampaigns calls each campaign under its own span and hashes what it
// rendered. A failing call is recorded and the list goes on.
func runCampaigns(camps []campaign, tr *tracer, root int) passResult {
	p := passResult{Traced: tr != nil, Modelled: map[string]float64{}}
	for _, c := range camps {
		id := tr.begin("experiments."+c.name, root)
		start := time.Now()
		out, err := c.run()
		secs := time.Since(start).Seconds()
		tr.end(id)
		call := callResult{Name: c.name, Seconds: secs}
		if err != nil {
			call.Err = err.Error()
		} else {
			sum := sha256.Sum256([]byte(out.rendered))
			call.Hash = hex.EncodeToString(sum[:])
		}
		p.Calls = append(p.Calls, call)
		for k, v := range out.modelled {
			p.Modelled[k] += v
		}
	}
	return p
}

// finish attaches a traced pass's spans and counters.
func (p *passResult) finish(e env, tr *tracer) {
	if tr == nil {
		return
	}
	p.Spans = tr.spans
	p.Counters = e.tel.Snapshot().Counters
}
