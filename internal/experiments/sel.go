package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/forest"
	"radshield/internal/ild"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/stats"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
)

// SELConfig parameterizes the SEL-detection experiments. The defaults
// scale the paper's 960-hour campaign down to laptop runtimes while
// keeping sample counts large enough for stable rates; pass a longer
// Duration to approach the paper's scale.
type SELConfig struct {
	Duration    time.Duration // flight-campaign length (paper: 960 h)
	SampleEvery time.Duration // telemetry cadence (paper: 1 ms)
	TrainFor    time.Duration // ground-twin training span
	SELEvery    time.Duration // latchup injection period (paper: 30 min)
	SELAmps     float64       // latchup magnitude (paper: +0.07 A)
	Window      time.Duration // detection window (paper: 3 min)
	Seed        int64

	// Workers bounds the campaign scheduler's parallelism for the
	// experiments that fan out independent trials (Table 2 monitors,
	// Fig 10 sweep levels, threshold sweeps, ablation variants); <= 0
	// means one worker per CPU. Output is byte-identical at any width.
	Workers int

	// Telemetry, when non-nil, receives machine, detector, and campaign
	// metrics (see TELEMETRY.md). Nil means no instrumentation cost.
	Telemetry *telemetry.Registry

	// Cache, when non-nil, replays already-computed arms from the
	// content-addressed result store (see RESULTCACHE.md). Output is
	// byte-identical warm or cold.
	Cache *resultcache.Store
}

// DefaultSELConfig returns a campaign that runs in a few seconds.
func DefaultSELConfig() SELConfig {
	return SELConfig{
		Duration:    4 * time.Hour,
		SampleEvery: 10 * time.Millisecond,
		TrainFor:    2 * time.Minute,
		SELEvery:    30 * time.Minute,
		SELAmps:     0.07,
		Window:      3 * time.Minute,
		Seed:        1,
	}
}

// machineConfig builds the testbed board at the experiment cadence.
func (c SELConfig) machineConfig(seed int64) machine.Config {
	mc := machine.DefaultConfig()
	mc.SampleEvery = c.SampleEvery
	mc.SensorSeed = seed
	mc.Telemetry = c.Telemetry
	return mc
}

// ildConfig builds the detector config at the experiment cadence.
func (c SELConfig) ildConfig() ild.Config {
	ic := ild.DefaultConfig()
	ic.SampleEvery = c.SampleEvery
	ic.DetectionWindow = c.Window
	return ic
}

// injectSEL injects a latchup whose magnitude comes from a validated
// experiment config: the machine rejecting it means the config escaped
// validation, which is a bug worth crashing the campaign over.
func injectSEL(m *machine.Machine, amps float64) {
	if err := m.InjectSEL(amps); err != nil {
		//radlint:allow nopanic amps come from validated experiment configs; documented panic contract
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// TrainILD performs the pre-launch procedure: run the ground twin over a
// quiescent trace and fit the linear current model.
func TrainILD(c SELConfig) (*ild.Detector, error) {
	c.Telemetry = nil // ground-twin training stays out of flight metrics
	m := machine.New(c.machineConfig(c.Seed + 100))
	trainer := ild.NewTrainer(c.ildConfig())
	rng := rand.New(rand.NewSource(c.Seed + 101))
	m.RunTrace(trace.Quiescent(rng, c.TrainFor, 10*time.Second), func(tel machine.Telemetry) {
		trainer.Add(tel)
	})
	return trainer.Fit()
}

// trainForestBaseline reproduces the black-box ML baseline exactly as
// the paper describes it (§4.1.2): "a random forest classifier trained
// on current draw under emulated SEL and during quiescence ... trained
// solely on current draw and not on performance counters", with no
// temporal element. Workload currents never appear in training, and the
// orbital thermal drift of the baseline is not a feature it can see —
// both failure modes the paper attributes to black-box detectors.
func trainForestBaseline(c SELConfig) *ild.ForestDetector {
	c.Telemetry = nil // training injections are not flight SELs
	var currents []float64
	var labels []int
	for pass, sel := range []float64{0, c.SELAmps} {
		m := machine.New(c.machineConfig(c.Seed + 200 + int64(pass)))
		if sel > 0 {
			injectSEL(m, sel)
		}
		rng := rand.New(rand.NewSource(c.Seed + 202))
		tr := trace.Quiescent(rng, 10*time.Minute, 15*time.Second)
		label := 0
		if sel > 0 {
			label = 1
		}
		i := 0
		m.RunTrace(tr, func(tel machine.Telemetry) {
			i++
			if i%8 != 0 { // subsample to keep forest training tractable
				return
			}
			currents = append(currents, tel.CurrentA)
			labels = append(labels, label)
		})
	}
	return ild.TrainForestDetector(currents, labels, forest.Config{Trees: 30, MaxDepth: 8, Seed: c.Seed})
}

// DetectorAccuracyResult is one Table 2 column, extended with detection
// latency (time from SEL onset to first flag, over detected episodes).
type DetectorAccuracyResult struct {
	Name              string
	Episodes          int
	FalseNegativeRate float64
	FalsePositiveRate float64
	MeanLatency       time.Duration
	MaxLatency        time.Duration
}

// table2Episode is one recorded SEL episode: its onset time and the
// sample-index range over which the serial harness would have treated
// samples as in-episode (lastSample is the clearing sample, inclusive,
// or -1 when the campaign ends mid-episode).
type table2Episode struct {
	start       time.Duration
	firstSample int
	lastSample  int
}

// table2Recording is the monitor-independent campaign input: the full
// telemetry stream of the flight trace with latchups injected on the
// paper's schedule, plus the episode windows derived from it. Episode
// scheduling depends only on sample timestamps — never on detector
// output — so every monitor can replay the identical stream in
// parallel. Memory: one machine.Telemetry per sample (~220 B), ≈0.3 GB
// for the paper-scale 4 h / 10 ms campaign; scale Duration accordingly.
type table2Recording struct {
	samples  []machine.Telemetry
	episodes []table2Episode
}

// recordTable2Campaign plays the Table 2 flight trace once, injecting
// and clearing latchups exactly as the serial harness did, and records
// the resulting telemetry stream.
func recordTable2Campaign(c SELConfig) *table2Recording {
	m := machine.New(c.machineConfig(c.Seed))
	rng := rand.New(rand.NewSource(c.Seed + 1))
	flight := trace.FlightSoftware(rng, c.Duration, 4)
	policy := ild.BubblePolicy{BubbleLen: c.bubbleLen(), Pause: 3 * time.Minute, Instruments: ild.NewInstruments(c.Telemetry)}
	flight = ild.InjectBubbles(flight, policy)

	rec := &table2Recording{}
	nextSEL := c.SELEvery
	episodeEnd := time.Duration(-1)
	k := 0
	m.RunTrace(flight, func(tel machine.Telemetry) {
		if episodeEnd < 0 && tel.T >= nextSEL {
			injectSEL(m, c.SELAmps)
			episodeEnd = tel.T + c.Window
			rec.episodes = append(rec.episodes, table2Episode{start: tel.T, firstSample: k, lastSample: -1})
		}
		rec.samples = append(rec.samples, tel)
		if episodeEnd >= 0 && tel.T >= episodeEnd {
			m.ClearSEL()
			episodeEnd = -1
			nextSEL = tel.T + c.SELEvery
			rec.episodes[len(rec.episodes)-1].lastSample = k
		}
		k++
	})
	return rec
}

// table2State is one monitor's accumulated campaign statistics.
type table2State struct {
	episodeHit []bool // per episode: fired within window
	latencies  []time.Duration
	fpSamples  int
	negSamples int
}

func encTable2State(e *resultcache.Enc, st table2State) {
	e.Int(int64(len(st.episodeHit)))
	for _, h := range st.episodeHit {
		e.Bool(h)
	}
	e.Int(int64(len(st.latencies)))
	for _, l := range st.latencies {
		e.Duration(l)
	}
	e.Int(int64(st.fpSamples))
	e.Int(int64(st.negSamples))
}

func decTable2State(d *resultcache.Dec) table2State {
	var st table2State
	for n := d.Int(); n > 0; n-- {
		st.episodeHit = append(st.episodeHit, d.Bool())
		if d.Err() != nil {
			return st // malformed length; sticky error ends the decode
		}
	}
	for n := d.Int(); n > 0; n-- {
		st.latencies = append(st.latencies, d.Duration())
		if d.Err() != nil {
			return st
		}
	}
	st.fpSamples = int(d.Int())
	st.negSamples = int(d.Int())
	return st
}

// replayTable2 walks a monitor over the recorded stream, reproducing the
// serial harness's per-sample bookkeeping bit for bit. ildInstruments is
// non-nil only for the ILD trial, which also owns the per-episode
// telemetry counters.
func replayTable2(rec *table2Recording, mon ild.Monitor, ins *ild.Instruments, episodesCtr, missedCtr *telemetry.Counter) table2State {
	var st table2State
	ep := 0
	for k, tel := range rec.samples {
		var cur *table2Episode
		if ep < len(rec.episodes) {
			if e := &rec.episodes[ep]; k >= e.firstSample && (e.lastSample < 0 || k <= e.lastSample) {
				cur = e
				if k == e.firstSample {
					st.episodeHit = append(st.episodeHit, false)
				}
			}
		}
		fired := mon.Observe(tel)
		if cur != nil {
			if fired && !st.episodeHit[len(st.episodeHit)-1] {
				st.episodeHit[len(st.episodeHit)-1] = true
				st.latencies = append(st.latencies, tel.T-cur.start)
				if ins != nil {
					ins.ObserveLatency(tel.T - cur.start)
				}
			}
			if k == cur.lastSample {
				if ins != nil {
					episodesCtr.Inc()
					if !st.episodeHit[len(st.episodeHit)-1] {
						missedCtr.Inc()
					}
				}
				ep++
			}
		} else {
			st.negSamples++
			if fired {
				st.fpSamples++
				if ins != nil {
					ins.CountFalseTrip()
				}
			}
		}
	}
	return st
}

// Table2 runs the detector-accuracy campaign (paper Table 2): a long
// flight-software trace with periodic +SELAmps latchups, evaluated by
// ILD, the current-only random forest, and three static thresholds.
//
// The campaign stream is recorded once (it is monitor-independent), then
// each detector trains and replays it as one scheduler trial, so the
// monitors evaluate in parallel yet the rendered table is byte-identical
// to a workers=1 run.
func Table2(c SELConfig) ([]DetectorAccuracyResult, *Table, error) {
	type monitorSpec struct {
		name  string
		build func() (ild.Monitor, error)
	}

	// Attach instruments to the ILD detector (not the baselines: Table 2
	// compares detectors, but the telemetry story follows the paper's
	// deployed design).
	ins := ild.NewInstruments(c.Telemetry)
	var episodesCtr, missedCtr *telemetry.Counter
	if c.Telemetry != nil {
		episodesCtr = c.Telemetry.Counter("ild_episodes_total", "episodes")
		missedCtr = c.Telemetry.Counter("ild_episodes_missed_total", "episodes")
	}

	specs := []monitorSpec{
		{"ILD", func() (ild.Monitor, error) {
			det, err := TrainILD(c)
			if err != nil {
				return nil, err
			}
			det.SetInstruments(ins)
			return det, nil
		}},
		{"RandomForest", func() (ild.Monitor, error) { return trainForestBaseline(c), nil }},
	}
	for _, level := range []float64{1.75, 1.80, 1.85} {
		level := level
		specs = append(specs, monitorSpec{fmt.Sprintf("Static %.2fA", level), func() (ild.Monitor, error) {
			return ild.NewStaticThreshold(level)
		}})
	}

	cache := cacheArms(c.Cache, "table2/v1", len(specs),
		func(i int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Str(specs[i].name)
		},
		armCodec[table2State]{enc: encTable2State, dec: decTable2State})

	// The recorded campaign stream is monitor-independent input for the
	// replay arms; a fully warm cache never replays, so skip recording.
	var rec *table2Recording
	if !cache.AllHit() {
		rec = recordTable2Campaign(c)
	}

	states, err := sched.Map(len(specs), c.Workers, func(i int) (table2State, error) {
		return cache.CachedArm(i, func() (table2State, error) {
			mon, err := specs[i].build()
			if err != nil {
				return table2State{}, err
			}
			if i == 0 { // ILD owns the detector-side telemetry
				return replayTable2(rec, mon, ins, episodesCtr, missedCtr), nil
			}
			return replayTable2(rec, mon, nil, nil, nil), nil
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	results := make([]DetectorAccuracyResult, len(specs))
	tbl := &Table{
		Title:  "Table 2: SEL detector accuracy",
		Header: []string{"Detector", "Episodes", "FalseNegRate", "FalsePosRate", "MeanLatency", "MaxLatency"},
	}
	for i, mon := range specs {
		st := states[i]
		missed := 0
		for _, hit := range st.episodeHit {
			if !hit {
				missed++
			}
		}
		fnr := 0.0
		if len(st.episodeHit) > 0 {
			fnr = float64(missed) / float64(len(st.episodeHit))
		}
		fpr := 0.0
		if st.negSamples > 0 {
			fpr = float64(st.fpSamples) / float64(st.negSamples)
		}
		var mean, max time.Duration
		for _, l := range st.latencies {
			mean += l
			if l > max {
				max = l
			}
		}
		if len(st.latencies) > 0 {
			mean /= time.Duration(len(st.latencies))
		}
		results[i] = DetectorAccuracyResult{
			Name: mon.name, Episodes: len(st.episodeHit),
			FalseNegativeRate: fnr, FalsePositiveRate: fpr,
			MeanLatency: mean, MaxLatency: max,
		}
		tbl.AddRow(mon.name, fmt.Sprint(len(st.episodeHit)), pct(fnr), pct(fpr),
			mean.Round(time.Millisecond).String(), max.Round(time.Millisecond).String())
	}
	return results, tbl, nil
}

// Fig10 sweeps the latchup magnitude (paper Figure 10): one-minute SEL
// episodes at +0.01 A … +0.10 A during quiescence, reporting the miss
// rate per magnitude. The paper's knee is at ≈0.05 A (ILD's threshold is
// 0.055 A with the rolling-min floor beneath it).
func Fig10(c SELConfig, episodesPer int) (*Figure, error) {
	// The sweep iterates integer centiamps (1..10 → +0.01..+0.10 A):
	// floating-point accumulation (amps += 0.01) makes both the level
	// count and the int64(amps*1000) seed derivation depend on rounding
	// drift, whereas integer levels keep the per-level machine seed
	// exact. Each level is one scheduler trial with its own detector
	// instance (same trained model) and its own seeded RNG.
	const levels = 10
	cache := cacheArms(c.Cache, "fig10/v1", levels,
		func(li int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Int(int64(episodesPer))
			e.Int(int64(li + 1)) // centiamp level
		},
		armCodec[float64]{
			enc: func(e *resultcache.Enc, v float64) { e.Float(v) },
			dec: func(d *resultcache.Dec) float64 { return d.Float() },
		})

	// Detector training feeds only computed arms; skip it when warm.
	var model *linmodel.Model
	if !cache.AllHit() {
		base, err := TrainILD(c)
		if err != nil {
			return nil, err
		}
		model = base.Model()
	}
	fig := &Figure{
		Title:  "Figure 10: misdetection rate vs latchup current",
		XLabel: "additional latchup current (A)",
		YLabel: "false negative rate",
	}
	fnr, err := sched.Map(levels, c.Workers, func(li int) (float64, error) {
		return cache.CachedArm(li, func() (float64, error) {
			return fig10Level(c, model, li, episodesPer)
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, err
	}
	s := Series{Name: "ILD"}
	for li, y := range fnr {
		s.Add(float64(li+1)/100, y)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig10Level computes one magnitude level of the Figure 10 sweep.
func fig10Level(c SELConfig, model *linmodel.Model, li, episodesPer int) (float64, error) {
	ca := li + 1
	amps := float64(ca) / 100
	det, err := ild.NewDetector(model, c.ildConfig())
	if err != nil {
		return 0, err
	}
	m := machine.New(c.machineConfig(c.Seed + int64(ca)*10))
	rng := rand.New(rand.NewSource(c.Seed + 2))
	missed := 0
	for ep := 0; ep < episodesPer; ep++ {
		det.Reset()
		// One minute latched, one minute clear, all quiescent.
		injectSEL(m, amps)
		hit := false
		m.RunTrace(trace.Quiescent(rng, time.Minute, 10*time.Second), func(tel machine.Telemetry) {
			if det.Observe(tel) {
				hit = true
			}
		})
		m.ClearSEL()
		det.Reset()
		m.RunTrace(trace.Quiescent(rng, 10*time.Second, 5*time.Second), nil)
		if !hit {
			missed++
		}
	}
	return float64(missed) / float64(episodesPer), nil
}

// Table3 reports ILD's worst-case overhead (paper Table 3): the bubble
// measurement cost per hour of compute and the additional cost of one
// false-positive reboot.
func Table3(rebootCost time.Duration) *Table {
	p := ild.DefaultBubblePolicy()
	meas, reboot := p.WorstCaseOverheadPerHour(rebootCost)
	tbl := &Table{
		Title:  "Table 3: worst-case ILD overhead per hour of compute",
		Header: []string{"Measurement Overhead", "Reboot-Only Overhead"},
	}
	tbl.AddRow(fmt.Sprintf("+%v / hr", meas), fmt.Sprintf("+%v / hr", reboot))
	return tbl
}

// Fig2Result carries the Figure 2 current traces.
type Fig2Result struct {
	Fig            *Figure
	MaxNominalA    float64
	MaxLatchedA    float64
	ThresholdA     float64
	CrossesNominal bool // workload activity alone crosses the trip line
	CrossesLatched bool // quiescent SEL current crosses the trip line
}

// Fig2 reproduces the paper's Figure 2: the current draw of a navigation
// workload before and after a micro-SEL, against the supply's static 4 A
// trip line — demonstrating that the threshold fires on compute and
// never on the latchup.
func Fig2(c SELConfig) *Fig2Result {
	mc := c.machineConfig(c.Seed + 7)
	m := machine.New(mc)
	rng := rand.New(rand.NewSource(c.Seed + 8))

	res := &Fig2Result{ThresholdA: mc.Power.TripThresholdA}
	fig := &Figure{
		Title:  "Figure 2: navigation workload current, before/after SEL",
		XLabel: "time (s)",
		YLabel: "current (A)",
	}
	nominal := Series{Name: "nominal"}
	m.RunTrace(trace.Navigation(rng, time.Minute, 4), func(tel machine.Telemetry) {
		nominal.Add(tel.T.Seconds(), tel.RawA)
		if tel.RawA > res.MaxNominalA {
			res.MaxNominalA = tel.RawA
		}
	})
	injectSEL(m, c.SELAmps)
	latched := Series{Name: fmt.Sprintf("under SEL (+%.2f A)", c.SELAmps)}
	m.RunTrace(trace.Quiescent(rng, time.Minute, 10*time.Second), func(tel machine.Telemetry) {
		latched.Add(tel.T.Seconds(), tel.RawA)
		if tel.RawA > res.MaxLatchedA {
			res.MaxLatchedA = tel.RawA
		}
	})
	fig.Series = append(fig.Series, nominal, latched)
	res.Fig = fig
	res.CrossesNominal = res.MaxNominalA > res.ThresholdA
	res.CrossesLatched = res.MaxLatchedA > res.ThresholdA
	return res
}

// Fig5Result carries the Figure 5 correlation experiment.
type Fig5Result struct {
	Fig         *Figure
	Correlation float64
}

// Fig5 reproduces the paper's Figure 5: a matrix-multiply workload
// stepped across 0–4 cores and the DVFS range correlates ≈99.7 % with
// measured current.
func Fig5(c SELConfig) *Fig5Result {
	m := machine.New(c.machineConfig(c.Seed + 9))
	tr := trace.MatMulSteps(4, 600e6, 1.4e9, 100e6, 500*time.Millisecond)
	fig := &Figure{
		Title:  "Figure 5: current vs CPU activity under stepped matmul",
		XLabel: "time (s)",
		YLabel: "current (A) / instruction rate",
	}
	cur := Series{Name: "current (A)"}
	instr := Series{Name: "instructions/s (×1e9)"}
	var xs, ys []float64
	m.RunTrace(tr, func(tel machine.Telemetry) {
		cur.Add(tel.T.Seconds(), tel.CurrentA)
		instr.Add(tel.T.Seconds(), tel.TotalInstrPerSec()/1e9)
		xs = append(xs, tel.TotalInstrPerSec())
		ys = append(ys, tel.CurrentA)
	})
	fig.Series = append(fig.Series, cur, instr)
	return &Fig5Result{Fig: fig, Correlation: stats.Correlation(xs, ys)}
}
