package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"radshield/internal/bayes"
	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/forest"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/sched"
	"radshield/internal/stats"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// Ablation studies for the design decisions DESIGN.md calls out. Each
// returns a rendered table; the repository benchmarks exercise them.

// AblationRollingMin compares the quiescent current noise floor and the
// resulting micro-SEL separability with and without the ±250 µs
// rolling-minimum filter (paper §3.1: σ 0.14 A → 0.02 A).
func AblationRollingMin(c SELConfig) *Table {
	tbl := &Table{
		Title:  "Ablation: rolling-minimum filter width",
		Header: []string{"FilterK", "Quiescent σ (A)", "σ vs SEL (0.07A) margin"},
	}
	ks := []int{1, 3, 5, 9}
	// Each filter width is an independent trial (own machine, own RNG);
	// σ estimation never fails so the error path is unreachable.
	sigmas, _ := sched.Map(len(ks), c.Workers, func(i int) (float64, error) {
		mc := c.MachineConfig(c.Seed + int64(ks[i]))
		mc.FilterK = ks[i]
		m := machine.New(mc)
		rng := rand.New(rand.NewSource(c.Seed))
		var cur []float64
		m.RunTrace(trace.Quiescent(rng, 30*time.Second, 10*time.Second), func(tel machine.Telemetry) {
			cur = append(cur, tel.CurrentA)
		})
		return stats.StdDev(cur), nil
	}, sched.WithTelemetry(c.Telemetry))
	for i, sigma := range sigmas {
		margin := 0.07 / sigma
		tbl.AddRow(fmt.Sprint(ks[i]), fmt.Sprintf("%.4f", sigma), fmt.Sprintf("%.1fσ", margin))
	}
	return tbl
}

// AblationQuiescenceGate compares ILD with its quiescence gate against a
// variant that also trusts measurements under load — the paper's core
// argument for detecting only when idle.
func AblationQuiescenceGate(c SELConfig) (*Table, error) {
	gated, err := TrainILD(c)
	if err != nil {
		return nil, err
	}
	// Ungated variant: the same fitted model, but every sample is
	// considered quiescent — the model must extrapolate to load levels it
	// never saw in (quiescent-only) training.
	ungatedCfg := c.ildConfig()
	ungatedCfg.QuiescentInstrPerSec = math.MaxFloat64
	ungated, err := ild.NewDetector(gated.Model(), ungatedCfg)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		Title:  "Ablation: quiescence gating",
		Header: []string{"Variant", "FP samples under load", "Load samples"},
	}
	variants := []struct {
		name string
		mon  ild.Monitor
	}{{"gated (ILD)", gated}, {"ungated", ungated}}
	// Both variants observe one flight of the burst trace.
	mc := c.MachineConfig(c.Seed + 310)
	m := machine.New(mc)
	rng := rand.New(rand.NewSource(c.Seed + 311))
	fp, n := make([]int, len(variants)), 0
	m.RunTrace(trace.Burst(rng, 2*time.Minute, mc.Cores), func(tel machine.Telemetry) {
		n++
		for i, v := range variants {
			if v.mon.Observe(tel) {
				fp[i]++
			}
		}
	})
	for i, v := range variants {
		tbl.AddRow(v.name, fmt.Sprint(fp[i]), fmt.Sprint(n))
	}
	return tbl, nil
}

// AblationBubbleCadence sweeps the bubble policy (paper: 3 s per 180 s),
// reporting runtime overhead against worst-case detection latency.
func AblationBubbleCadence() *Table {
	tbl := &Table{
		Title:  "Ablation: bubble cadence (overhead vs detection latency)",
		Header: []string{"Bubble", "Pause", "Overhead", "Worst-case latency"},
	}
	for _, p := range []ild.BubblePolicy{
		{BubbleLen: 3 * time.Second, Pause: 60 * time.Second},
		{BubbleLen: 3 * time.Second, Pause: 180 * time.Second},
		{BubbleLen: 3 * time.Second, Pause: 600 * time.Second},
		{BubbleLen: 10 * time.Second, Pause: 180 * time.Second},
	} {
		// Worst case: the SEL strikes just after a bubble ends; it is
		// caught at the end of the next bubble.
		latency := p.Pause + p.BubbleLen
		tbl.AddRow(p.BubbleLen.String(), p.Pause.String(), pct(p.OverheadFraction()), latency.String())
	}
	return tbl
}

// AblationClassifier reproduces the paper's rejected alternatives for
// the ILD model (§3.1: naive Bayes and random forest on OS metrics were
// "computationally expensive and imprecise" next to the linear model).
// Classifiers are trained on full feature vectors labelled nominal/SEL
// and evaluated on quiescent telemetry with and without a +0.07 A SEL.
func AblationClassifier(c SELConfig) (*Table, error) {
	// Training data: quiescent features (+ current appended) under both
	// labels.
	train := c
	train.Telemetry = nil // training injections are not flight SELs
	var X [][]float64
	var y []int
	for pass, sel := range []float64{0, c.SELAmps} {
		m := machine.New(train.MachineConfig(c.Seed + 400 + int64(pass)))
		if sel > 0 {
			injectSEL(m, sel)
		}
		rng := rand.New(rand.NewSource(c.Seed + 402))
		label := 0
		if sel > 0 {
			label = 1
		}
		i := 0
		m.RunTrace(trace.Quiescent(rng, c.TrainFor, 10*time.Second), func(tel machine.Telemetry) {
			i++
			if i%4 != 0 {
				return
			}
			X = append(X, appendClassifierRow(nil, tel))
			y = append(y, label)
		})
	}
	rf := forest.Train(X, y, forest.Config{Trees: 20, MaxDepth: 8, Seed: c.Seed})
	nb := bayes.Train(X, y)
	lin, err := TrainILD(c)
	if err != nil {
		return nil, err
	}

	models := []struct {
		name    string
		predict func(machine.Telemetry) bool
	}{
		{"linear+window (ILD)", func(tel machine.Telemetry) bool { return lin.Observe(tel) }},
		{"random forest", classifierMonitor(rf.Predict)},
		{"naive bayes", classifierMonitor(nb.Predict)},
	}
	// Every model observes one flight of each evaluation stream, clean
	// then latched. The forest and Bayes predictors are pure; the ILD
	// detector keeps its state from the first stream into the second.
	conf := make([]stats.Confusion, len(models))
	for pass, sel := range []float64{0, c.SELAmps} {
		m := machine.New(c.MachineConfig(c.Seed + 500 + int64(pass)))
		if sel > 0 {
			injectSEL(m, sel)
		}
		rng := rand.New(rand.NewSource(c.Seed + 502 + int64(pass)))
		m.RunTrace(trace.Quiescent(rng, time.Minute, 10*time.Second), func(tel machine.Telemetry) {
			for i, mod := range models {
				conf[i].Record(mod.predict(tel), sel > 0)
			}
		})
	}

	tbl := &Table{
		Title:  "Ablation: ILD model choice (per-sample rates during quiescence)",
		Header: []string{"Model", "FalseNegRate", "FalsePosRate"},
	}
	for i, mod := range models {
		tbl.AddRow(mod.name, pct(conf[i].FalseNegativeRate()), pct(conf[i].FalsePositiveRate()))
	}
	return tbl, nil
}

// appendClassifierRow appends AblationClassifier's input row for tel to
// dst: the ILD feature vector plus the measured current.
func appendClassifierRow(dst []float64, tel machine.Telemetry) []float64 {
	if dst == nil {
		dst = make([]float64, 0, ild.FeatureDim(len(tel.PerCore))+1)
	}
	return append(ild.AppendFeatures(dst, tel), tel.CurrentA)
}

// classifierMonitor flags a latchup when predict classifies the sample's
// row as class 1. The row is built in a scratch buffer the returned
// closure owns, so each model reuses its own.
func classifierMonitor(predict func([]float64) int) func(machine.Telemetry) bool {
	var row []float64
	return func(tel machine.Telemetry) bool {
		row = appendClassifierRow(row[:0], tel)
		return predict(row) == 1
	}
}

// AblationScheduling compares EMR's greedy conflict-aware jobsets with
// forced full serialization and the unprotected free-for-all on the
// image-processing workload.
func AblationScheduling(c SEUConfig) (*Table, error) {
	b := workloads.ImageProcessing()
	tbl := &Table{
		Title:  "Ablation: jobset scheduling (image processing, DRAM frontier)",
		Header: []string{"Variant", "Jobsets", "Runtime(s)", "Protected"},
	}
	// Unprotected parallel (lower bound, leaves shared cache exposed).
	unprot, err := runScheme(b, fault.SchemeUnprotectedParallel, emr.FrontierDRAM, c, nil)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("unprotected parallel", "-", fmt.Sprintf("%.4f", unprot.Report.Makespan.Seconds()), "no")

	// EMR greedy jobsets.
	emrRes, err := runScheme(b, fault.SchemeEMR, emr.FrontierDRAM, c, nil)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("EMR greedy jobsets", fmt.Sprint(emrRes.Report.Jobsets),
		fmt.Sprintf("%.4f", emrRes.Report.Makespan.Seconds()), "yes")

	// Fully serialized: every pair conflicts.
	rt, spec, err := seuDevice(b, c.Size, c.Seed, fault.SchemeEMR, emr.FrontierDRAM, nil, nil)
	if err != nil {
		return nil, err
	}
	spec.ExtraConflict = func(i, j int) bool { return true }
	serialized, err := rt.Run(spec)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("all-conflict (serialized)", fmt.Sprint(serialized.Report.Jobsets),
		fmt.Sprintf("%.4f", serialized.Report.Makespan.Seconds()), "yes")
	return tbl, nil
}

// AblationCacheECC compares EMR's software flush discipline against the
// hardware alternative the paper mentions in §3.2: an SECDED-protected
// shared cache, under which EMR "simply reverts to 3-MR". The same cache
// strike is injected under both configurations.
func AblationCacheECC(c SEUConfig) (*Table, error) {
	b := workloads.ImageProcessing()
	tbl := &Table{
		Title:  "Ablation: software flush discipline vs hardware cache ECC",
		Header: []string{"Variant", "Runtime(s)", "Flushes", "Strikes absorbed in HW", "Votes corrected"},
	}
	// Both variants build their own runtime from the shared (stateless)
	// builder; the same strike is injected in each, so they are
	// independent scheduler trials.
	variants := []bool{false, true}
	rows, err := sched.Map(len(variants), c.Workers, func(i int) ([]string, error) {
		ecc := variants[i]
		rt, spec, err := seuDevice(b, c.Size, c.Seed, fault.SchemeEMR, emr.FrontierDRAM, nil,
			func(cfg emr.Config) emr.Config { cfg.CacheECC = ecc; return cfg })
		if err != nil {
			return nil, err
		}
		done := false
		spec.Hook = func(hp *emr.HookPoint) {
			if !done && hp.Phase == emr.PhaseAfterRead && hp.Dataset == 1 && hp.Executor == 0 {
				done = true
				rt.Cache().FlipBit(hp.Regions[0].Addr+64, 3)
			}
		}
		res, err := rt.Run(spec)
		if err != nil {
			return nil, err
		}
		name := "EMR flush discipline"
		if ecc {
			name = "hardware cache ECC (plain 3-MR)"
		}
		return []string{name,
			fmt.Sprintf("%.4f", res.Report.Makespan.Seconds()),
			fmt.Sprint(res.Report.CacheStats.LinesFlushed),
			fmt.Sprint(res.Report.CacheStats.FlipsAbsorbed),
			fmt.Sprint(res.Report.Votes.Corrected)}, nil
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	return tbl, nil
}
