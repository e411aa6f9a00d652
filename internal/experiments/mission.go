package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// Mission-survival Monte Carlo: the deployment-level question the paper
// motivates but cannot run on the ground — across many simulated
// missions in a given radiation environment, how often does the
// spacecraft survive with and without Radshield?
//
// A mission is lost when (a) a latchup persists past the thermal damage
// horizon, or (b) a silently corrupted payload product is downlinked.
// Detected payload failures are retried (standard flight-software
// behaviour), so only SDC counts against the protected arm.

// MissionConfig parameterizes the campaign.
type MissionConfig struct {
	Environment fault.Environment
	Missions    int
	Duration    time.Duration // per mission
	// RateBoost multiplies event rates so short simulated missions see
	// meaningful event counts (survival statistics need events).
	RateBoost float64
	Seed      int64

	// Workers bounds the campaign scheduler's parallelism; <= 0 means
	// one worker per CPU. Any width produces byte-identical output:
	// each mission is an independently-seeded trial and tallies are
	// accumulated in mission order.
	Workers int

	// Telemetry, when non-nil, receives the campaign scheduler's
	// sched_* metrics (see TELEMETRY.md).
	Telemetry *telemetry.Registry

	// Cache, when non-nil, replays already-flown missions from the
	// content-addressed result store instead of recomputing them (see
	// RESULTCACHE.md). Output is byte-identical warm or cold.
	Cache *resultcache.Store
}

// DefaultMissionConfig runs compressed 12-hour missions at boosted LEO
// rates.
func DefaultMissionConfig() MissionConfig {
	return MissionConfig{
		Environment: fault.LEO,
		Missions:    5,
		Duration:    12 * time.Hour,
		RateBoost:   600,
		Seed:        3,
	}
}

// MissionTally summarizes one arm of the campaign.
type MissionTally struct {
	Survived        int
	LostToLatchup   int
	LostToSDC       int
	LatchupsCleared int
	SEUsOutvoted    int
}

// MissionSurvival runs the campaign for both arms and renders the table.
func MissionSurvival(c MissionConfig) (protected, unprotected MissionTally, tbl *Table, err error) {
	env := c.Environment
	env.SELPerYear *= c.RateBoost
	env.SEUPerDay *= c.RateBoost / 10 // SEUs are already frequent

	// Each mission's key covers everything its pair depends on: the
	// un-boosted environment, the boost, the mission length, and the
	// trial-derived seed. Missions count is deliberately absent —
	// growing the sweep replays the arms already flown.
	cache := cacheArms(c.Cache, "mission/v1", c.Missions,
		func(i int, e *resultcache.Enc) {
			encEnvironment(e, c.Environment)
			e.Float(c.RateBoost)
			e.Duration(c.Duration)
			e.Int(c.Seed)
			e.Int(int64(i))
		},
		armCodec[missionPair]{enc: encMissionPair, dec: decMissionPair})

	// The golden payload run exists only to compare computed arms
	// against; a fully warm cache skips it.
	var golden [][]byte
	if !cache.AllHit() {
		golden, err = missionGolden()
		if err != nil {
			return protected, unprotected, nil, err
		}
	}

	// One trial per mission, both arms: the arms share a seed (identical
	// event schedule) so keeping them in one work item preserves the
	// paired comparison while the scheduler fans missions across CPUs.
	pairs, err := sched.Map(c.Missions, c.Workers, func(i int) (missionPair, error) {
		return cache.CachedArm(i, func() (missionPair, error) {
			seed := c.Seed + int64(i)*17
			// One RNG stream builds the event schedule and the flight-software
			// trace once per pair; both arms replay them read-only. (Each arm
			// used to rebuild identical copies from the shared seed — the
			// campaign's largest per-trial constructions, doubled for nothing.)
			rng := rand.New(rand.NewSource(seed))
			events := env.Schedule(rng, c.Duration)
			mission := trace.FlightSoftware(rng, c.Duration, machine.DefaultConfig().Cores)
			p, err := flyOneMission(c, seed, true, golden, events, mission)
			if err != nil {
				return missionPair{}, err
			}
			u, err := flyOneMission(c, seed, false, golden, events, mission)
			if err != nil {
				return missionPair{}, err
			}
			return missionPair{protected: p, unprotected: u}, nil
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return protected, unprotected, nil, err
	}
	for _, pr := range pairs {
		accumulate(&protected, pr.protected)
		accumulate(&unprotected, pr.unprotected)
	}

	tbl = &Table{
		Title: fmt.Sprintf("Mission survival: %d×%v missions, %s environment (rates ×%.0f)",
			c.Missions, c.Duration, c.Environment.Name, c.RateBoost),
		Header: []string{"Arm", "Survived", "Lost (latchup)", "Lost (SDC)", "SELs cleared", "SEUs outvoted"},
	}
	row := func(name string, t MissionTally) {
		tbl.AddRow(name, fmt.Sprintf("%d/%d", t.Survived, c.Missions),
			fmt.Sprint(t.LostToLatchup), fmt.Sprint(t.LostToSDC),
			fmt.Sprint(t.LatchupsCleared), fmt.Sprint(t.SEUsOutvoted))
	}
	row("Radshield (ILD+EMR)", protected)
	row("unprotected", unprotected)
	return protected, unprotected, tbl, nil
}

type missionResult struct {
	damaged         bool
	sdc             bool
	latchupsCleared int
	seusOutvoted    int
}

// missionPair carries both arms of one mission trial through the
// scheduler (and the result cache) together, preserving the paired
// comparison.
type missionPair struct {
	protected   missionResult
	unprotected missionResult
}

func encMissionResult(e *resultcache.Enc, r missionResult) {
	e.Bool(r.damaged)
	e.Bool(r.sdc)
	e.Int(int64(r.latchupsCleared))
	e.Int(int64(r.seusOutvoted))
}

func decMissionResult(d *resultcache.Dec) missionResult {
	return missionResult{
		damaged:         d.Bool(),
		sdc:             d.Bool(),
		latchupsCleared: int(d.Int()),
		seusOutvoted:    int(d.Int()),
	}
}

func encMissionPair(e *resultcache.Enc, p missionPair) {
	encMissionResult(e, p.protected)
	encMissionResult(e, p.unprotected)
}

func decMissionPair(d *resultcache.Dec) missionPair {
	return missionPair{protected: decMissionResult(d), unprotected: decMissionResult(d)}
}

func accumulate(t *MissionTally, r missionResult) {
	switch {
	case r.damaged:
		t.LostToLatchup++
	case r.sdc:
		t.LostToSDC++
	default:
		t.Survived++
	}
	t.LatchupsCleared += r.latchupsCleared
	t.SEUsOutvoted += r.seusOutvoted
}

// missionGolden computes the reference payload outputs once.
func missionGolden() ([][]byte, error) {
	cfg := emr.DefaultConfig()
	cfg.Scheme = fault.SchemeNone
	rt, err := emr.New(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ImageProcessing().Build(rt, 32<<10, 2026)
	if err != nil {
		return nil, err
	}
	res, err := rt.Run(spec)
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// flyOneMission simulates one mission arm. events and mission are the
// pair-shared scaffolding, consumed read-only (the shielded arm derives
// its own bubble-injected copy).
func flyOneMission(c MissionConfig, seed int64, shielded bool, golden [][]byte, events []fault.Event, mission *trace.Trace) (missionResult, error) {
	var out missionResult

	selCfg := DefaultSELConfig()
	selCfg.Seed = seed
	var det *ild.Detector
	if shielded {
		var err error
		det, err = TrainILD(selCfg)
		if err != nil {
			return out, err
		}
	}

	mc := machine.DefaultConfig()
	mc.SampleEvery = selCfg.SampleEvery
	mc.SensorSeed = seed + 1
	m := machine.New(mc)
	if shielded {
		mission = ild.InjectBubbles(mission, ild.BubblePolicy{BubbleLen: 4 * time.Second, Pause: 3 * time.Minute})
	}

	scheme := fault.SchemeUnprotectedParallel
	if shielded {
		scheme = fault.SchemeEMR
	}

	nextEvent := 0
	pendingSEUs := 0
	nextContact := 3 * time.Hour
	var payloadErr error
	m.RunTrace(mission, func(tel machine.Telemetry) {
		for nextEvent < len(events) && events[nextEvent].T <= tel.T {
			ev := events[nextEvent]
			nextEvent++
			if ev.Kind == fault.SEL {
				injectSEL(m, ev.Amps)
			} else {
				pendingSEUs++
			}
		}
		if det != nil && det.Observe(tel) {
			m.PowerCycle()
			det.Reset()
			out.latchupsCleared++
		}
		if tel.T >= nextContact && payloadErr == nil {
			nextContact += 3 * time.Hour
			ok, corrected, err := missionPayload(scheme, seed+int64(tel.T), pendingSEUs, golden)
			if err != nil {
				payloadErr = err
				return
			}
			pendingSEUs = 0
			out.seusOutvoted += corrected
			if !ok {
				out.sdc = true
			}
		}
	})
	if payloadErr != nil {
		return out, payloadErr
	}
	out.damaged = m.Damaged()
	return out, nil
}

// missionPayload runs the localization job under the scheme with the SEU
// backlog striking the cache; detected failures are retried clean.
func missionPayload(scheme fault.Scheme, seed int64, seus int, golden [][]byte) (ok bool, corrected int, err error) {
	cfg := emr.DefaultConfig()
	cfg.Scheme = scheme
	rt, err := emr.New(cfg)
	if err != nil {
		return false, 0, err
	}
	spec, err := workloads.ImageProcessing().Build(rt, 32<<10, 2026)
	if err != nil {
		return false, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	spec.Hook = func(hp *emr.HookPoint) {
		if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < 0.05 {
			reg := hp.Regions[rng.Intn(len(hp.Regions))]
			f := fault.RandomFlip(rng, reg.Len)
			if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
				remaining--
			}
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		return false, 0, err
	}
	for i := range golden {
		if res.Outputs[i] == nil {
			continue // detected → retried clean; not SDC
		}
		if !bytes.Equal(res.Outputs[i], golden[i]) {
			return false, res.Report.Votes.Corrected, nil
		}
	}
	return true, res.Report.Votes.Corrected, nil
}
