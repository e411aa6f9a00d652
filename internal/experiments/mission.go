package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
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
		golden, err = payloadGolden()
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
			// trace once per pair; both arms replay them read-only.
			rng := rand.New(rand.NewSource(seed))
			events := env.Schedule(rng, c.Duration)
			raw, bubbled := DefaultSELConfig().pairTrace(rng, c.Duration, 3*time.Minute)
			p, err := flyOneMission(seed, true, golden, events, raw, bubbled)
			if err != nil {
				return missionPair{}, err
			}
			u, err := flyOneMission(seed, false, golden, events, raw, bubbled)
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

// flyOneMission simulates one mission arm over the pair-shared events
// and trace (the shielded arm flies the bubbled copy), both read-only.
func flyOneMission(seed int64, shielded bool, golden [][]byte, events []fault.Event, raw, bubbled *trace.Trace) (missionResult, error) {
	var out missionResult
	selCfg := DefaultSELConfig()
	selCfg.Seed = seed
	m := machine.New(selCfg.machineConfig(seed + 1))

	var prot *protection
	flight, plan := raw, guard.Plan{Scheme: fault.SchemeUnprotectedParallel, Executors: 3}
	if shielded {
		det, err := TrainILD(selCfg)
		if err != nil {
			return out, err
		}
		prot = &protection{m: m, det: det}
		flight, plan = bubbled, guard.RedundancyTMR.Plan()
	}

	nextEvent := 0
	pendingSEUs := 0
	nextContact := 3 * time.Hour
	var payloadErr error
	m.RunTrace(flight, func(tel machine.Telemetry) {
		for nextEvent < len(events) && events[nextEvent].T <= tel.T {
			ev := events[nextEvent]
			nextEvent++
			if ev.Kind == fault.SEL {
				injectSEL(m, ev.Amps)
			} else {
				pendingSEUs++
			}
		}
		if prot != nil {
			if _, cycled := prot.observe(tel); cycled {
				out.latchupsCleared++
			}
		}
		if tel.T >= nextContact && payloadErr == nil {
			nextContact += 3 * time.Hour
			res, err := payloadContact(plan, seed+int64(tel.T), pendingSEUs, golden)
			if err != nil {
				payloadErr = err
				return
			}
			pendingSEUs = 0
			out.seusOutvoted += res.corrected
			out.sdc = out.sdc || res.sdc
		}
	})
	if payloadErr != nil {
		return out, payloadErr
	}
	out.damaged = m.Damaged()
	return out, nil
}
