package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/power"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
)

// Guard campaigns: fault injection against Radshield's own dependencies.
// The other experiments assume the current sensor and the executor cores
// are sound; these sweeps break them on a schedule and measure how the
// guard layer (internal/guard) degrades and recovers — detection
// latency, false-healthy time, degraded-mode dwell, and the mission
// survival delta versus an unguarded detector.

// GuardCampaignConfig parameterizes the sensor-fault sweep.
type GuardCampaignConfig struct {
	// SEL supplies the shared campaign parameters: mission Duration,
	// telemetry cadence, latchup period/magnitude, detection Window,
	// Seed, Workers, Telemetry.
	SEL SELConfig
	// The sweep grid: every fault kind × onset × duration combination
	// is one paired trial (guarded and unguarded arms share seeds).
	Kinds          []power.FaultKind
	Onsets         []time.Duration
	FaultDurations []time.Duration // 0 = permanent once started
	// Supervisor tunes the guard ladder. Note RefireWindow must span a
	// few quiescence opportunities (bubble cadence) or a biased sensor's
	// post-cycle refires are never recognized as a storm.
	Supervisor guard.SupervisorConfig
}

// DefaultGuardCampaignConfig sweeps all four sensor-fault models, one
// mid-mission onset, transient and permanent windows.
func DefaultGuardCampaignConfig() GuardCampaignConfig {
	sel := DefaultSELConfig()
	sel.Duration = 30 * time.Minute
	sel.SELEvery = 8 * time.Minute
	sup := guard.DefaultSupervisorConfig()
	sup.RefireWindow = 10 * time.Minute // covers the 3-minute bubble cadence
	return GuardCampaignConfig{
		SEL:            sel,
		Kinds:          []power.FaultKind{power.FaultStuck, power.FaultDropout, power.FaultOffset, power.FaultGarbage},
		Onsets:         []time.Duration{10 * time.Minute},
		FaultDurations: []time.Duration{6 * time.Minute, 0},
		Supervisor:     sup,
	}
}

// GuardTrial is one paired sweep point: the same mission flown with the
// guard supervisor (guarded arm) and with a bare ILD detector
// (unguarded arm), sharing seeds so the comparison is paired.
type GuardTrial struct {
	Kind          power.FaultKind
	Onset         time.Duration
	FaultDuration time.Duration // 0 = permanent

	// DetectSamples counts telemetry samples from fault onset to the
	// guard's first demotion (-1: the fault was never recognized).
	DetectSamples int
	// FalseHealthy is how long the fault was active while the guard
	// still fully trusted the sensor (linear mode, healthy verdict).
	FalseHealthy time.Duration
	// DegradedDwell is total mission time spent below the linear rung.
	DegradedDwell time.Duration
	BlindCycles   int
	FinalMode     guard.Mode

	// MissedSELs counts latchup episodes that stayed uncleared past the
	// detection window, per arm.
	MissedSELs          int
	UnguardedMissedSELs int
	PowerCycles         int
	UnguardedCycles     int
	Survived            bool
	UnguardedSurvived   bool
}

// guardArmResult is one arm's raw tallies.
type guardArmResult struct {
	detectSamples       int
	falseHealthySamples int
	degradedSamples     int
	blindCycles         int
	finalMode           guard.Mode
	missedSELs          int
	powerCycles         int
	survived            bool
}

// guardTrialSpec is one grid point.
type guardTrialSpec struct {
	kind  power.FaultKind
	onset time.Duration
	dur   time.Duration
}

// GuardCampaign sweeps sensor faults against the guard layer and
// renders the comparison table. Trials fan out across the campaign
// scheduler; output is byte-identical at any worker width.
func GuardCampaign(c GuardCampaignConfig) ([]GuardTrial, *Table, error) {
	var specs []guardTrialSpec
	for _, k := range c.Kinds {
		for _, on := range c.Onsets {
			for _, du := range c.FaultDurations {
				specs = append(specs, guardTrialSpec{kind: k, onset: on, dur: du})
			}
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty guard sweep grid")
	}

	// The trial index participates in the key (the trial seed derives
	// from it), so reordering the sweep grid recomputes — by design.
	cache := cacheArms[GuardTrial](c.SEL.Cache, "guard", len(specs),
		func(i int, e *resultcache.Enc) {
			encSELConfig(e, c.SEL)
			e.Value(c.Supervisor)
			sp := specs[i]
			e.Int(int64(sp.kind))
			e.Duration(sp.onset)
			e.Duration(sp.dur)
			e.Int(int64(i))
		})

	var model *linmodel.Model
	if !cache.AllHit() {
		base, err := TrainILD(c.SEL)
		if err != nil {
			return nil, nil, err
		}
		model = base.Model()
	}

	trials, err := sched.Map(len(specs), c.SEL.Workers, func(i int) (GuardTrial, error) {
		return cache.CachedArm(i, func() (GuardTrial, error) {
			sp := specs[i]
			seed := c.SEL.Seed + 1000 + int64(i)*29
			_, flight := c.SEL.PairTrace(rand.New(rand.NewSource(seed+3)), c.SEL.Duration, c.SEL.BubblePause(), nil)
			g, err := flyGuardArm(c, sp, model, flight, seed, true)
			if err != nil {
				return GuardTrial{}, err
			}
			u, err := flyGuardArm(c, sp, model, flight, seed, false)
			if err != nil {
				return GuardTrial{}, err
			}
			return GuardTrial{
				Kind: sp.kind, Onset: sp.onset, FaultDuration: sp.dur,
				DetectSamples: g.detectSamples,
				FalseHealthy:  time.Duration(g.falseHealthySamples) * c.SEL.SampleEvery,
				DegradedDwell: time.Duration(g.degradedSamples) * c.SEL.SampleEvery,
				BlindCycles:   g.blindCycles,
				FinalMode:     g.finalMode,
				MissedSELs:    g.missedSELs, UnguardedMissedSELs: u.missedSELs,
				PowerCycles: g.powerCycles, UnguardedCycles: u.powerCycles,
				Survived: g.survived, UnguardedSurvived: u.survived,
			}, nil
		})
	}, sched.WithTelemetry(c.SEL.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Guard campaign: sensor faults over %v missions, SEL every %v, window %v",
			c.SEL.Duration, c.SEL.SELEvery, c.SEL.Window),
		Header: []string{"Fault", "Onset", "For", "Demoted@", "FalseHealthy", "DegradedDwell",
			"BlindCycles", "FinalMode", "MissedSEL g/u", "Cycles g/u", "Survived g/u"},
	}
	for _, tr := range trials {
		demoted := "never"
		if tr.DetectSamples >= 0 {
			demoted = fmt.Sprintf("%d smp", tr.DetectSamples)
		}
		durStr := "permanent"
		if tr.FaultDuration > 0 {
			durStr = tr.FaultDuration.String()
		}
		tbl.AddRow(tr.Kind.String(), tr.Onset.String(), durStr, demoted,
			tr.FalseHealthy.Round(10*time.Millisecond).String(),
			tr.DegradedDwell.Round(10*time.Millisecond).String(),
			fmt.Sprint(tr.BlindCycles), tr.FinalMode.String(),
			fmt.Sprintf("%d/%d", tr.MissedSELs, tr.UnguardedMissedSELs),
			fmt.Sprintf("%d/%d", tr.PowerCycles, tr.UnguardedCycles),
			fmt.Sprintf("%v/%v", tr.Survived, tr.UnguardedSurvived))
	}
	return trials, tbl, nil
}

// flyGuardArm flies one mission arm over the pair's flight trace:
// latchups on the campaign period and the scheduled sensor fault. The
// guarded arm routes every sample through the supervisor and acts on
// its decisions; the unguarded arm runs the paper's bare detector.
func flyGuardArm(c GuardCampaignConfig, sp guardTrialSpec, model *linmodel.Model, flight *trace.Trace, seed int64, guarded bool) (guardArmResult, error) {
	res := guardArmResult{detectSamples: -1}
	mc := c.SEL.MachineConfig(seed)
	mc.Telemetry = nil // trials run in parallel; per-trial metrics stay local
	m := machine.New(mc)
	if err := m.Sensor().ScheduleFault(power.SensorFault{
		Kind: sp.kind, Start: sp.onset, Duration: sp.dur, OffsetA: guardOffsetA,
	}); err != nil {
		return res, err
	}
	prot, sup, err := newProtection(m, model, c.SEL.ildConfig(), c.Supervisor, guarded)
	if err != nil {
		return res, err
	}

	sels := c.SEL.periodicSELs(c.SEL.SELEvery)
	faultSamples := 0
	m.RunTrace(flight, func(tel machine.Telemetry) {
		sels.observe(m, tel.T)
		faultActive := sp.kind != power.FaultNone && tel.T >= sp.onset &&
			(sp.dur <= 0 || tel.T < sp.onset+sp.dur)
		if faultActive {
			faultSamples++
		}
		d, _, _ := prot.Observe(tel)
		if !guarded {
			return
		}
		if faultActive && d.SensorOK && d.Mode == guard.ModeLinearModel {
			res.falseHealthySamples++
		}
		if d.Mode != guard.ModeLinearModel {
			res.degradedSamples++
		}
		if res.detectSamples < 0 && d.Demoted && faultActive {
			res.detectSamples = faultSamples
		}
	})

	if guarded {
		res.blindCycles = sup.BlindCycles()
		res.finalMode = sup.Mode()
	}
	res.missedSELs = sels.missed
	res.powerCycles = m.PowerCycles()
	res.survived = !m.Damaged()
	return res, nil
}

// WatchdogCampaignConfig parameterizes the EMR replica-fault sweep:
// Datasets chunks of watchdogChunk bytes, each "hang" visit stalled by
// replicaStall, which Watchdog.Deadline must stay below.
type WatchdogCampaignConfig struct {
	Datasets int
	Seed     int64
	Workers  int
	Watchdog guard.WatchdogConfig
	// Telemetry, when non-nil, receives the campaign scheduler's
	// sched_* metrics.
	Telemetry *telemetry.Registry
	// Cache, when non-nil, replays already-computed trials from the
	// content-addressed result store (see RESULTCACHE.md).
	Cache *resultcache.Store
}

// DefaultWatchdogCampaignConfig sweeps every executor with both failure
// causes under a 10 ms visit deadline.
func DefaultWatchdogCampaignConfig() WatchdogCampaignConfig {
	wd := guard.DefaultWatchdogConfig()
	wd.Deadline = 10 * time.Millisecond
	return WatchdogCampaignConfig{
		Datasets: 4,
		Seed:     9,
		Watchdog: wd,
	}
}

const (
	// watchdogChunk is the byte length of each replica-fault dataset.
	watchdogChunk = 256
	// replicaStall is how long a hung replica visit stalls, in the
	// watchdog campaign and the OS-fault campaign's scheduler_stall
	// stage alike.
	replicaStall = time.Second
	// guardOffsetA is the bias of the guard sweep's FaultOffset trials.
	guardOffsetA = 0.12
)

// WatchdogTrial is one replica-fault sweep point: one executor failing
// persistently with one cause, run under TMR with the watchdog
// attached, then retried under the degraded plan it prescribes.
type WatchdogTrial struct {
	Executor int
	Cause    string // "hang" or "crash"

	Kills      int
	Crashes    int
	Mode       guard.RedundancyMode
	Backoff    time.Duration // deterministic delay before the retry
	TMROutputs bool          // TMR run produced golden outputs despite the bad core
	Degraded   bool          // degraded-plan retry produced golden outputs
}

// errInjectedCrash is the deterministic crash injected into replica
// visits for "crash" trials.
var errInjectedCrash = fmt.Errorf("experiments: injected replica crash")

// WatchdogCampaign sweeps persistent per-executor faults against the
// EMR watchdog and renders the table. Output is byte-identical at any
// worker width.
func WatchdogCampaign(c WatchdogCampaignConfig) ([]WatchdogTrial, *Table, error) {
	if c.Datasets < 1 {
		return nil, nil, fmt.Errorf("experiments: watchdog campaign needs datasets ≥ 1")
	}
	if replicaStall <= c.Watchdog.Deadline {
		return nil, nil, fmt.Errorf("experiments: the %v replica stall must exceed the watchdog deadline %v", replicaStall, c.Watchdog.Deadline)
	}
	type wdSpec struct {
		executor int
		cause    string
	}
	var specs []wdSpec
	for e := 0; e < emr.DefaultConfig().Executors; e++ {
		for _, cause := range []string{"hang", "crash"} {
			specs = append(specs, wdSpec{executor: e, cause: cause})
		}
	}

	cache := cacheArms[WatchdogTrial](c.Cache, "watchdog", len(specs),
		func(i int, e *resultcache.Enc) {
			e.Int(int64(c.Datasets))
			e.Int(c.Seed)
			e.Value(c.Watchdog)
			e.Int(int64(specs[i].executor))
			e.Str(specs[i].cause)
		})

	trials, err := sched.Map(len(specs), c.Workers, func(i int) (WatchdogTrial, error) {
		return cache.CachedArm(i, func() (WatchdogTrial, error) {
			return watchdogTrialArm(c, specs[i].executor, specs[i].cause)
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Watchdog campaign: persistent replica faults, %d datasets, deadline %v",
			c.Datasets, c.Watchdog.Deadline),
		Header: []string{"Executor", "Cause", "Kills", "Crashes", "Mode", "Backoff", "TMR outputs", "Degraded retry"},
	}
	for _, tr := range trials {
		tbl.AddRow(fmt.Sprint(tr.Executor), tr.Cause, fmt.Sprint(tr.Kills), fmt.Sprint(tr.Crashes),
			tr.Mode.String(), tr.Backoff.String(), verdict(tr.TMROutputs), verdict(tr.Degraded))
	}
	return trials, tbl, nil
}

// watchdogTrialArm flies one (executor, cause) sweep point.
func watchdogTrialArm(c WatchdogCampaignConfig, executor int, cause string) (WatchdogTrial, error) {
	tr := WatchdogTrial{Executor: executor, Cause: cause}
	golden, err := c.runWorkload(guard.Plan{Scheme: fault.SchemeNone, Executors: 1}, nil, -1, "")
	if err != nil {
		return tr, err
	}
	w, err := guard.NewWatchdog(c.Watchdog)
	if err != nil {
		return tr, err
	}

	// Stage 1: TMR with the bad core. The watchdog kills/strikes it
	// out; the remaining replicas still vote correct outputs.
	res, err := c.runWorkload(guard.RedundancyTMR.Plan(), w, executor, cause)
	if err != nil {
		return tr, err
	}
	tr.Kills = w.Kills()
	tr.Crashes = w.Crashes()
	tr.Mode = w.Mode()
	tr.TMROutputs = outputsMatch(res.Outputs, golden.Outputs)

	// Stage 2: retry under the degraded plan after the deterministic
	// backoff. A checksum-arbiter plan also runs the arbiter pass, a
	// checksum-guarded single run, and requires it to agree.
	tr.Backoff, _ = w.Backoff(0)
	plan := w.Plan()
	if res, err = c.runWorkload(plan, w, -1, ""); err != nil {
		return tr, err
	}
	tr.Degraded = outputsMatch(res.Outputs, golden.Outputs)
	if plan.ChecksumArbiter && tr.Degraded {
		if res, err = c.runWorkload(guard.Plan{Scheme: fault.SchemeChecksum, Executors: 1}, nil, -1, ""); err != nil {
			return tr, err
		}
		tr.Degraded = outputsMatch(res.Outputs, golden.Outputs)
	}
	return tr, nil
}

// watchdogJob digests its inputs deterministically and appends the
// digest to dst.
func watchdogJob(dst []byte, inputs [][]byte) ([]byte, error) {
	var sum uint32
	for _, in := range inputs {
		for _, b := range in {
			sum = sum*31 + uint32(b)
		}
	}
	return binary.BigEndian.AppendUint32(dst, sum), nil
}

// runWorkload runs the campaign's chunked digest workload on a fresh
// runtime for plan, with watch attached. Cause "hang" stalls every
// after-read visit of executor by replicaStall, "crash" fails it, and
// "" injects nothing.
func (c WatchdogCampaignConfig) runWorkload(plan guard.Plan, watch emr.Watcher, executor int, cause string) (*emr.Result, error) {
	rt, err := emr.New(planConfig(plan, watch))
	if err != nil {
		return nil, err
	}
	data := make([]byte, c.Datasets*watchdogChunk)
	for i := range data {
		data[i] = byte(int64(i)*7 + c.Seed)
	}
	ref, err := rt.LoadInput("wd", data)
	if err != nil {
		return nil, err
	}
	spec := emr.Spec{Name: "watchdog", Datasets: make([]emr.Dataset, c.Datasets), Job: watchdogJob, CyclesPerByte: 10}
	for i := range spec.Datasets {
		s, err := ref.Slice(uint64(i*watchdogChunk), watchdogChunk)
		if err != nil {
			return nil, err
		}
		spec.Datasets[i] = emr.Dataset{Inputs: []emr.InputRef{s}}
	}
	if cause != "" {
		spec.Hook = func(hp *emr.HookPoint) {
			if hp.Phase == emr.PhaseAfterRead && hp.Executor == executor {
				if cause == "hang" {
					hp.Stall = replicaStall
				} else {
					hp.Fail = errInjectedCrash
				}
			}
		}
	}
	return rt.Run(spec)
}

// outputsMatch reports whether every dataset output equals the golden.
func outputsMatch(got, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}
