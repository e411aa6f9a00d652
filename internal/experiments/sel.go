package experiments

import (
	"fmt"
	"math"
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
// Duration to approach the paper's scale. Table 2 keeps no sample, so
// what grows with Duration is its flight trace, about 0.5 MB a flight
// hour (about 0.5 GB at 960 h).
type SELConfig struct {
	Duration    time.Duration // flight-campaign length (paper: 960 h)
	SampleEvery time.Duration // telemetry cadence (paper: 1 ms)
	TrainFor    time.Duration // ground-twin training span
	SELEvery    time.Duration // latchup injection period (paper: 30 min)
	SELAmps     float64       // latchup magnitude (paper: +0.07 A)
	Window      time.Duration // detection window (paper: 3 min)
	Seed        int64

	// Workers bounds the campaign scheduler's parallelism for the
	// experiments that fan out independent trials (Fig 10 sweep levels,
	// the rolling-minimum ablation's filter widths, the flight
	// campaigns' arms); <= 0 means one worker per CPU. Output is
	// byte-identical at any width.
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

// CheckHours vets an -hours flag value, the flight length of radbench
// and ildmon: a positive number of hours that a time.Duration can hold.
func CheckHours(hours float64) error {
	if !(hours > 0 && hours*float64(time.Hour) < math.MaxInt64) {
		return fmt.Errorf("-hours %v, want above 0 and below %.0f", hours, time.Duration(math.MaxInt64).Hours())
	}
	return nil
}

// MachineConfig builds the testbed board at the experiment cadence,
// its sensor seeded with seed and its metrics on c.Telemetry: every
// board the campaigns, ildmon and examples/leomission fly.
func (c SELConfig) MachineConfig(seed int64) machine.Config {
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
	m := machine.New(c.MachineConfig(c.Seed + 100))
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
		m := machine.New(c.MachineConfig(c.Seed + 200 + int64(pass)))
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

// table2State is one monitor's accumulated campaign statistics, cached
// per monitor (see cache.go for why its fields are exported).
type table2State struct {
	EpisodeHit []bool // per episode: fired within window
	Latencies  []time.Duration
	FPSamples  int
	NegSamples int
}

// table2Monitor is one Table 2 detector: its row name and how to build
// it, trained.
type table2Monitor struct {
	name  string
	build func() (ild.Monitor, error)
}

// Table2 runs the detector-accuracy campaign (paper Table 2): a long
// flight-software trace with periodic +SELAmps latchups, evaluated by
// ILD, the current-only random forest, and three static thresholds.
//
// Latchups strike and clear on the sample clock, never on a detection,
// so the stream is the same whichever monitor watches it: one trial
// trains the monitors the cache missed and flies the campaign once past
// all of them.
func Table2(c SELConfig) ([]DetectorAccuracyResult, *Table, error) {
	// Attach instruments to the ILD detector (not the baselines: Table 2
	// compares detectors, but the telemetry story follows the paper's
	// deployed design).
	ins := ild.NewInstruments(c.Telemetry)
	var episodesCtr, missedCtr *telemetry.Counter
	if c.Telemetry != nil {
		episodesCtr = c.Telemetry.Counter("ild_episodes_total", "episodes")
		missedCtr = c.Telemetry.Counter("ild_episodes_missed_total", "episodes")
	}

	monitors := []table2Monitor{
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
		monitors = append(monitors, table2Monitor{fmt.Sprintf("Static %.2fA", level), func() (ild.Monitor, error) {
			return ild.NewStaticThreshold(level)
		}})
	}

	cache := cacheArms[table2State](c.Cache, "table2", len(monitors),
		func(i int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Str(monitors[i].name)
		})
	flights, err := sched.Map(1, c.Workers, func(int) ([]table2State, error) {
		return cache.CachedArms(func(miss []bool) ([]table2State, error) {
			return flyTable2(c, monitors, miss, ins, episodesCtr, missedCtr)
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}
	states := flights[0]

	results := make([]DetectorAccuracyResult, len(monitors))
	tbl := &Table{
		Title:  "Table 2: SEL detector accuracy",
		Header: []string{"Detector", "Episodes", "FalseNegRate", "FalsePosRate", "MeanLatency", "MaxLatency"},
	}
	for i, mon := range monitors {
		st := states[i]
		missed := 0
		for _, hit := range st.EpisodeHit {
			if !hit {
				missed++
			}
		}
		fnr := 0.0
		if len(st.EpisodeHit) > 0 {
			fnr = float64(missed) / float64(len(st.EpisodeHit))
		}
		fpr := 0.0
		if st.NegSamples > 0 {
			fpr = float64(st.FPSamples) / float64(st.NegSamples)
		}
		var mean, max time.Duration
		for _, l := range st.Latencies {
			mean += l
			if l > max {
				max = l
			}
		}
		if len(st.Latencies) > 0 {
			mean /= time.Duration(len(st.Latencies))
		}
		results[i] = DetectorAccuracyResult{
			Name: mon.name, Episodes: len(st.EpisodeHit),
			FalseNegativeRate: fnr, FalsePositiveRate: fpr,
			MeanLatency: mean, MaxLatency: max,
		}
		tbl.AddRow(mon.name, fmt.Sprint(len(st.EpisodeHit)), pct(fnr), pct(fpr),
			mean.Round(time.Millisecond).String(), max.Round(time.Millisecond).String())
	}
	return results, tbl, nil
}

// flyTable2 trains the monitors fly marks and flies the Table 2 campaign
// once past them, returning each one's statistics (the zero state for
// the others). An episode runs from the sample that injects its latchup
// through the sample that clears it, a window later; one still open
// when the flight ends runs to the last sample. ins counts the flight's
// bubbles; beyond that the ILD monitor, the first, alone feeds the
// detector-side telemetry: ins and the episode counters.
func flyTable2(c SELConfig, monitors []table2Monitor, fly []bool, ins *ild.Instruments,
	episodesCtr, missedCtr *telemetry.Counter) ([]table2State, error) {
	mons := make([]ild.Monitor, len(monitors))
	for i, mon := range monitors {
		if !fly[i] {
			continue
		}
		var err error
		if mons[i], err = mon.build(); err != nil {
			return nil, err
		}
	}
	states := make([]table2State, len(monitors))

	m := machine.New(c.MachineConfig(c.Seed))
	_, flight := c.PairTrace(rand.New(rand.NewSource(c.Seed+1)), c.Duration, c.BubblePause(), ins)
	nextSEL := c.SELEvery
	var start time.Duration         // the open episode's first sample
	episodeEnd := time.Duration(-1) // -1: no episode open
	m.RunTrace(flight, func(tel machine.Telemetry) {
		opens := episodeEnd < 0 && tel.T >= nextSEL
		if opens {
			injectSEL(m, c.SELAmps)
			start, episodeEnd = tel.T, tel.T+c.Window
		}
		in := episodeEnd >= 0
		clears := in && tel.T >= episodeEnd
		for i, mon := range mons {
			if mon == nil {
				continue
			}
			st, own := &states[i], i == 0
			fired := mon.Observe(tel)
			if !in {
				st.NegSamples++
				if fired {
					st.FPSamples++
					if own {
						ins.CountFalseTrip()
					}
				}
				continue
			}
			if opens {
				st.EpisodeHit = append(st.EpisodeHit, false)
			}
			hit := &st.EpisodeHit[len(st.EpisodeHit)-1]
			if fired && !*hit {
				*hit = true
				st.Latencies = append(st.Latencies, tel.T-start)
				if own {
					ins.ObserveLatency(tel.T - start)
				}
			}
			if clears && own {
				episodesCtr.Inc()
				if !*hit {
					missedCtr.Inc()
				}
			}
		}
		if clears {
			m.ClearSEL()
			episodeEnd, nextSEL = -1, tel.T+c.SELEvery
		}
	})
	return states, nil
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
	cache := cacheArms[float64](c.Cache, "fig10", levels,
		func(li int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Int(int64(episodesPer))
			e.Int(int64(li + 1)) // centiamp level
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

// fig10Level computes one magnitude level of the Figure 10 sweep:
// one-minute episodes on a board of its own, ten seconds of recovery
// after each.
func fig10Level(c SELConfig, model *linmodel.Model, li, episodesPer int) (float64, error) {
	ca := li + 1
	det, err := ild.NewDetector(model, c.ildConfig())
	if err != nil {
		return 0, err
	}
	m := machine.New(c.MachineConfig(c.Seed + int64(ca)*10))
	rng := rand.New(rand.NewSource(c.Seed + 2))
	missed := latchupEpisodes(m, rng, []*ild.Detector{det}, float64(ca)/100, episodesPer,
		10*time.Second, 10*time.Second, 5*time.Second)
	return float64(missed[0]) / float64(episodesPer), nil
}

// latchupEpisodes flies n latchup episodes of amps on m, all quiescent
// with a blip every gap: each resets the detectors, latches the board
// for one minute they observe, clears it, resets them again and lets
// the board recover for an unobserved recovery stretch (a blip every
// recoveryGap). It returns each detector's missed episodes, those in
// which it never fired.
func latchupEpisodes(m *machine.Machine, rng *rand.Rand, dets []*ild.Detector, amps float64, n int,
	gap, recovery, recoveryGap time.Duration) []int {
	missed := make([]int, len(dets))
	hit := make([]bool, len(dets))
	for ep := 0; ep < n; ep++ {
		for i, det := range dets {
			det.Reset()
			hit[i] = false
		}
		injectSEL(m, amps)
		m.RunTrace(trace.Quiescent(rng, time.Minute, gap), func(tel machine.Telemetry) {
			for i, det := range dets {
				if det.Observe(tel) {
					hit[i] = true
				}
			}
		})
		m.ClearSEL()
		for i, det := range dets {
			det.Reset()
			if !hit[i] {
				missed[i]++
			}
		}
		m.RunTrace(trace.Quiescent(rng, recovery, recoveryGap), nil)
	}
	return missed
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
	mc := c.MachineConfig(c.Seed + 7)
	m := machine.New(mc)
	rng := rand.New(rand.NewSource(c.Seed + 8))

	res := &Fig2Result{ThresholdA: mc.Power.TripThresholdA}
	fig := &Figure{
		Title:  "Figure 2: navigation workload current, before/after SEL",
		XLabel: "time (s)",
		YLabel: "current (A)",
	}
	nominal := Series{Name: "nominal"}
	m.RunTrace(trace.Navigation(rng, time.Minute, mc.Cores), func(tel machine.Telemetry) {
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
	mc := c.MachineConfig(c.Seed + 9)
	m := machine.New(mc)
	tr := trace.MatMulSteps(mc.Cores, machine.MinFreqHz, machine.MaxFreqHz, 100e6, 500*time.Millisecond)
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
