package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/forest"
	"radshield/internal/guard"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/mem"
	"radshield/internal/mission"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// The probe measures what one call into each layer costs. Campaign arms
// build their layers internally, out of the benchmark's reach, so the
// probe drives the same public APIs itself, with the workload's configs
// and seed, and times every call from outside.

// probeResult is the probe's per-call costs plus its spans.
type probeResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	Spans      []span             `json:"spans"`
	Aggregated []*aggSpan         `json:"aggregated"`
}

// prober times calls and files them under aggregated spans.
type prober struct {
	tr    *tracer
	agg   map[string]*aggSpan
	order []string
	clock int64 // cost of one time.Now pair, subtracted from every call
}

func (p *prober) call(name, parent string, f func()) {
	start := time.Now()
	f()
	p.record(name, parent, time.Since(start).Nanoseconds())
}

func (p *prober) record(name, parent string, ns int64) {
	a := p.agg[name]
	if a == nil {
		a = &aggSpan{Name: name, Parent: parent}
		p.agg[name] = a
		p.order = append(p.order, name)
	}
	a.add(ns - p.clock)
}

// stage runs f under a coarse span named "probe.<name>".
func (p *prober) stage(name string, root int, f func() error) error {
	id := p.tr.begin("probe."+name, root)
	err := f()
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// calibrateClock returns the median cost of an empty timed call.
func calibrateClock() int64 {
	d := make([]int64, 1001)
	for i := range d {
		start := time.Now()
		d[i] = time.Since(start).Nanoseconds()
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func probe(a childArgs) (*probeResult, error) {
	e := env{seed: a.seed, toy: a.toy}
	p := &prober{tr: newTracer(0), agg: map[string]*aggSpan{}, clock: calibrateClock()}
	m := map[string]float64{}
	root := p.tr.begin("probe", -1)
	stages := []struct {
		name string
		run  func() error
	}{
		{"machine_ild", func() error { return probeStream(p, a.workload.probeSEL(e), e, m) }},
		{"emr", func() error { return probeEMR(p, a.workload, e, m) }},
		{"guard_watchdog", func() error { return probeWatchdog(p, m) }},
		{"mission_schedule", func() error { return probeSchedule(p, e, m) }},
		{"downlink", func() error { return probeDownlink(p, m) }},
		{"resultcache", func() error { return probeStore(p, a, m) }},
		{"sched", func() error { probeSched(p, a.arms, m); return nil }},
	}
	for _, s := range stages {
		if err := p.stage(s.name, root, s.run); err != nil {
			return nil, err
		}
	}
	p.tr.end(root)
	res := &probeResult{Metrics: m, Spans: p.tr.spans}
	for _, name := range p.order {
		res.Aggregated = append(res.Aggregated, p.agg[name])
	}
	return res, nil
}

// median of the named aggregated span, in ns.
func (p *prober) median(name string) float64 { return float64(pct(p.agg[name].values, 0.5)) }

// pct returns the q-quantile of vs by nearest rank.
func pct(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// probeStream trains the workload's detectors, then plays a flight
// stream through the machine with every per-sample observer attached,
// timing each callback body and the machine's own step-and-sample gap
// between callbacks.
func probeStream(p *prober, sel experiments.SELConfig, e env, m map[string]float64) error {
	const parent = "probe.machine_ild"
	mc := machine.DefaultConfig()
	mc.SampleEvery = sel.SampleEvery
	mc.SensorSeed = sel.Seed
	ic := ild.DefaultConfig()
	ic.SampleEvery = sel.SampleEvery
	ic.DetectionWindow = sel.Window

	for i := 0; i < 20; i++ {
		p.call("machine.new", parent, func() { machine.New(mc) })
	}
	m["machine.new_us"] = p.median("machine.new") / 1e3

	var det *ild.Detector
	var err error
	p.call("ild.train", parent, func() { det, err = experiments.TrainILD(sel) })
	if err != nil {
		return err
	}
	m["ild.train_ms"] = p.median("ild.train") / 1e6

	rng := rand.New(rand.NewSource(sel.Seed))
	trainer := ild.NewTrainer(ic)
	machine.New(mc).RunTrace(trace.Quiescent(rng, sel.TrainFor, 10*time.Second), func(tel machine.Telemetry) { trainer.Add(tel) })
	p.call("ild.fit", parent, func() { _, err = trainer.Fit() })
	if err != nil {
		return err
	}
	m["ild.fit_ms"] = p.median("ild.fit") / 1e6

	// The forest baseline's training set: clean and latched quiescence,
	// every eighth sample, as the Table 2 baseline gathers it.
	var currents []float64
	var labels []int
	for label, amps := range []float64{0, sel.SELAmps} {
		tm := machine.New(mc)
		if amps > 0 {
			if err := tm.InjectSEL(amps); err != nil {
				return err
			}
		}
		i := 0
		tm.RunTrace(trace.Quiescent(rng, time.Duration(e.size(10, 1))*time.Minute, 15*time.Second), func(tel machine.Telemetry) {
			if i++; i%8 == 0 {
				currents = append(currents, tel.CurrentA)
				labels = append(labels, label)
			}
		})
	}
	var fd *ild.ForestDetector
	p.call("ild.forest_train", parent, func() {
		fd = ild.TrainForestDetector(currents, labels, forest.Config{Trees: 30, MaxDepth: 8, Seed: sel.Seed})
	})
	m["ild.forest_train_ms"] = p.median("ild.forest_train") / 1e6

	sup, err := guard.NewSupervisor(det, guard.DefaultSupervisorConfig())
	if err != nil {
		return err
	}
	bare, err := ild.NewDetector(det.Model(), ic)
	if err != nil {
		return err
	}
	health, err := guard.NewSensorHealth(guard.DefaultHealthConfig())
	if err != nil {
		return err
	}
	ctrl, err := adapt.New(adapt.DefaultConfig(), nil)
	if err != nil {
		return err
	}
	tracker := mission.NewTracker(mission.LEOWithSAA(), nil)

	// Bubbles give the detectors quiescence to measure in; one latchup
	// midway gives them something to find.
	span := time.Duration(e.size(10, 2)) * time.Minute
	stream := ild.InjectBubbles(trace.FlightSoftware(rng, span, mc.Cores),
		ild.BubblePolicy{BubbleLen: ic.SustainFor + time.Second, Pause: 3 * time.Minute})
	mach := machine.New(mc)
	last := time.Now()
	latched := false
	samples := mach.RunTrace(stream, func(tel machine.Telemetry) {
		p.record("machine.step_sample", parent, time.Since(last).Nanoseconds())
		if !latched && tel.T >= span/2 {
			latched = mach.InjectSEL(sel.SELAmps) == nil
		}
		p.call("ild.observe", parent, func() { bare.Observe(tel) })
		p.call("ild.forest_observe", parent, func() { fd.Observe(tel) })
		p.call("guard.supervisor_observe", parent, func() { sup.Observe(tel) })
		p.call("guard.health_observe", parent, func() { health.Observe(tel) })
		p.call("adapt.observe", parent, func() { ctrl.Observe(tel.T) })
		p.call("mission.tracker_observe", parent, func() { tracker.Observe(tel.T) })
		last = time.Now()
	})
	if samples == 0 {
		return fmt.Errorf("machine stream took no samples")
	}
	m["machine.step_sample_ns"] = p.agg["machine.step_sample"].mean()
	m["machine.step_sample_p99_ns"] = float64(pct(p.agg["machine.step_sample"].values, 0.99))
	for _, name := range []string{"ild.observe", "ild.forest_observe", "guard.supervisor_observe",
		"guard.health_observe", "adapt.observe", "mission.tracker_observe"} {
		m[name+"_ns"] = p.agg[name].mean()
	}
	return nil
}

// probeEMR builds the workload's EMR device and runs every paper
// workload on it once, timing construction, staging, the run and the
// reset that recycles the device, plus raw DRAM accesses.
func probeEMR(p *prober, w workload, e env, m map[string]float64) error {
	const parent = "probe.emr"
	cfg, size := w.probeEMR(e)
	var rt *emr.Runtime
	var err error
	var allocated uint64
	const builds = 2
	for i := 0; i < builds; i++ {
		before := totalAlloc()
		p.call("emr.new", parent, func() { rt, err = emr.New(cfg) })
		allocated += totalAlloc() - before
		if err != nil {
			return err
		}
	}
	m["emr.new_ms"] = p.median("emr.new") / 1e6
	m["emr.new_alloc_mb"] = float64(allocated) / builds / 1e6
	for i := 0; i < builds; i++ {
		p.call("mem.dram_new", parent, func() { mem.NewDRAM(cfg.DRAMSize, cfg.DRAMECC) })
	}
	m["mem.dram_new_ms"] = p.median("mem.dram_new") / 1e6

	for _, b := range workloads.All() {
		var spec emr.Spec
		p.call("emr.build", parent, func() { spec, err = b.Build(rt, size, e.seed) })
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		p.call("emr.run", parent, func() { _, err = rt.Run(spec) })
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		p.call("emr.reset", parent, rt.Reset)
	}
	m["emr.build_ms"] = p.agg["emr.build"].mean() / 1e6
	m["emr.run_ms"] = p.agg["emr.run"].mean() / 1e6
	m["emr.reset_ms"] = p.agg["emr.reset"].mean() / 1e6

	// Raw ECC DRAM traffic in 64 KiB blocks over a 1 MiB span.
	dram := mem.NewDRAM(1<<20, true)
	buf := make([]byte, 64<<10)
	rand.New(rand.NewSource(e.seed)).Read(buf)
	for rep := 0; rep < 2; rep++ {
		for addr := uint64(0); addr < dram.Size(); addr += uint64(len(buf)) {
			p.call("mem.write", parent, func() { err = dram.Write(addr, buf) })
			if err != nil {
				return err
			}
			p.call("mem.read", parent, func() { err = dram.Read(addr, buf) })
			if err != nil {
				return err
			}
		}
	}
	kib := float64(len(buf)) / 1024
	m["mem.write_ns_per_kib"] = p.agg["mem.write"].mean() / kib
	m["mem.read_ns_per_kib"] = p.agg["mem.read"].mean() / kib
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probeWatchdog times the watchdog's per-visit bookkeeping on clean visits.
func probeWatchdog(p *prober, m map[string]float64) error {
	w, err := guard.NewWatchdog(guard.DefaultWatchdogConfig())
	if err != nil {
		return err
	}
	for i := 0; i < 20000; i++ {
		p.call("guard.watchdog_visit", "probe.guard_watchdog", func() {
			_, err = w.VisitDone(i%3, i, time.Millisecond, nil)
		})
		if err != nil {
			return err
		}
	}
	m["guard.watchdog_visit_ns"] = p.agg["guard.watchdog_visit"].mean()
	return nil
}

// probeSchedule times the seeded event schedule of a boosted profile, as
// the adaptive campaign draws one per trial.
func probeSchedule(p *prober, e env, m map[string]float64) error {
	prof := mission.LEOWithSAA().Boosted(experiments.DefaultAdaptiveCampaignConfig().RateBoost)
	rng := rand.New(rand.NewSource(e.seed))
	var err error
	for i := 0; i < 10; i++ {
		p.call("mission.schedule", "probe.mission_schedule", func() { _, err = prof.Schedule(rng) })
		if err != nil {
			return err
		}
	}
	m["mission.schedule_ms"] = p.median("mission.schedule") / 1e6
	return nil
}

// probeDownlink times the frame codec and the ground station's ingest of
// in-order data frames carrying event-sized payloads.
func probeDownlink(p *prober, m map[string]float64) error {
	const parent, frames = "probe.downlink", 5000
	payload := make([]byte, 64)
	st := downlink.NewStation(downlink.DefaultStationConfig())
	for i := 0; i < frames; i++ {
		f := downlink.Frame{Type: downlink.FrameData, Link: 1, VC: uint8(i % downlink.NumVC), Seq: uint32(i / downlink.NumVC), Payload: payload}
		var raw []byte
		var err error
		p.call("downlink.encode", parent, func() { raw, err = downlink.EncodeFrame(f) })
		if err != nil {
			return err
		}
		p.call("downlink.decode", parent, func() { _, _, err = downlink.DecodeFrame(raw) })
		if err != nil {
			return err
		}
		p.call("downlink.ingest", parent, func() { st.Ingest(raw, time.Duration(i)*time.Millisecond) })
	}
	m["downlink.encode_ns"] = p.agg["downlink.encode"].mean()
	m["downlink.decode_ns"] = p.agg["downlink.decode"].mean()
	m["downlink.ingest_us"] = p.agg["downlink.ingest"].mean() / 1e3
	return nil
}

// probeStore fills a fresh result store with one entry per scheduler
// trial at the workload's payload size, then reopens it and reads every
// entry back.
func probeStore(p *prober, a childArgs, m map[string]float64) error {
	const parent = "probe.resultcache"
	size := a.payload
	if size <= 0 {
		size = 64 // no store in the workload: a small arm result
	}
	n := a.arms
	payload := make([]byte, size)
	rand.New(rand.NewSource(a.seed)).Read(payload)
	store, err := resultcache.Open(a.store)
	if err != nil {
		return err
	}
	keys := make([]resultcache.Key, n)
	for i := range keys {
		var enc resultcache.Enc
		enc.Int(int64(i))
		keys[i] = store.Key("bench/probe", &enc)
		p.call("resultcache.put", parent, func() { store.Put(keys[i], payload) })
	}
	p.call("resultcache.close", parent, func() { err = store.Close() })
	if err != nil {
		return err
	}
	p.call("resultcache.open", parent, func() { store, err = resultcache.Open(a.store) })
	if err != nil {
		return err
	}
	for _, k := range keys {
		ok := false
		p.call("resultcache.get", parent, func() { _, ok = store.Get(k) })
		if !ok {
			return fmt.Errorf("stored entry %s missing", k)
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	m["resultcache.put_us"] = p.agg["resultcache.put"].mean() / 1e3
	m["resultcache.close_ms"] = p.median("resultcache.close") / 1e6
	m["resultcache.open_ms"] = p.median("resultcache.open") / 1e6
	m["resultcache.get_us"] = p.agg["resultcache.get"].mean() / 1e3
	m["resultcache.get_p99_us"] = float64(pct(p.agg["resultcache.get"].values, 0.99)) / 1e3
	return nil
}

// probeSched times the scheduler's dispatch of no-op trials at the
// workload's trial count and width.
func probeSched(p *prober, arms int, m map[string]float64) {
	for i := 0; i < 50; i++ {
		p.call("sched.map", "probe.sched", func() {
			// No-op trials cannot fail.
			_, _ = sched.Map(arms, workers, func(int) (struct{}, error) { return struct{}{}, nil })
		})
	}
	m["sched.dispatch_us"] = p.median("sched.map") / float64(arms) / 1e3
}
