package experiments

import (
	"fmt"
	"time"

	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/machine"
	"radshield/internal/mission"
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

// MissionConfig parameterizes the campaign. Every mission flies one
// LEO phase over the fault.LEO environment.
type MissionConfig struct {
	Missions int
	Duration time.Duration // per mission
	// RateBoost multiplies event rates (mission.Profile.Boosted) so
	// short simulated missions see meaningful event counts (survival
	// statistics need events).
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
		Missions:  5,
		Duration:  12 * time.Hour,
		RateBoost: 600,
		Seed:      3,
	}
}

// MissionTally summarizes one arm of the campaign.
type MissionTally struct {
	Survived        int
	LostToLatchup   int
	LostToSDC       int
	LatchupsCleared int
	// SEUsOutvoted counts payload datasets whose vote outvoted a
	// replica (emr.VoteStats.Corrected), not upsets: one upset in a
	// replica that later datasets read disagrees in each of their votes.
	SEUsOutvoted int
}

// MissionSurvival runs the campaign for both arms and renders the table.
// It fails before any work on fewer than one mission or a profile that
// mission.Profile.Validate rejects.
func MissionSurvival(c MissionConfig) (protected, unprotected MissionTally, tbl *Table, err error) {
	if c.Missions < 1 {
		return protected, unprotected, nil, fmt.Errorf("experiments: MissionSurvival: Missions = %d, want at least 1", c.Missions)
	}
	prof := mission.Profile{
		Name:  fault.LEO.Name,
		Base:  fault.LEO,
		Phase: []mission.Phase{mission.NewPhase(mission.PhaseLEO, c.Duration)},
	}.Boosted(c.RateBoost)
	if err = prof.Validate(); err != nil {
		return protected, unprotected, nil, err
	}

	// Each mission's key covers everything its pair depends on but the
	// code: the boost, the mission length, and the trial-derived seed. Missions count is deliberately absent —
	// growing the sweep replays the arms already flown.
	cache := cacheArms[missionPair](c.Cache, "mission", c.Missions,
		func(i int, e *resultcache.Enc) {
			e.Float(c.RateBoost)
			e.Duration(c.Duration)
			e.Int(c.Seed)
			e.Int(int64(i))
		})

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
			// One flight plan per pair; both arms fly it read-only.
			sel := DefaultSELConfig()
			events, raw, bubbled, err := sel.FlightPlan(prof, seed, sel.BubblePause())
			if err != nil {
				return missionPair{}, err
			}
			p, err := flyOneMission(seed, true, golden, events, raw, bubbled)
			if err != nil {
				return missionPair{}, err
			}
			u, err := flyOneMission(seed, false, golden, events, raw, bubbled)
			if err != nil {
				return missionPair{}, err
			}
			return missionPair{Protected: p, Unprotected: u}, nil
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return protected, unprotected, nil, err
	}
	for _, pr := range pairs {
		accumulate(&protected, pr.Protected)
		accumulate(&unprotected, pr.Unprotected)
	}

	tbl = &Table{
		Title: fmt.Sprintf("Mission survival: %d×%v missions, %s environment (rates ×%.0f)",
			c.Missions, c.Duration, prof.Name, c.RateBoost),
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

// missionResult is one arm's outcome (cached; see cache.go).
type missionResult struct {
	Damaged         bool
	SDC             bool
	LatchupsCleared int
	SEUsOutvoted    int // payload datasets whose vote outvoted a replica
}

// missionPair carries both arms of one mission trial through the
// scheduler (and the result cache) together, preserving the paired
// comparison.
type missionPair struct {
	Protected   missionResult
	Unprotected missionResult
}

func accumulate(t *MissionTally, r missionResult) {
	switch {
	case r.Damaged:
		t.LostToLatchup++
	case r.SDC:
		t.LostToSDC++
	default:
		t.Survived++
	}
	t.LatchupsCleared += r.LatchupsCleared
	t.SEUsOutvoted += r.SEUsOutvoted
}

// flyOneMission simulates one mission arm over the pair-shared events
// and trace (the shielded arm flies the bubbled copy), both read-only.
func flyOneMission(seed int64, shielded bool, golden [][]byte, events []fault.Event, raw, bubbled *trace.Trace) (missionResult, error) {
	var out missionResult
	selCfg := DefaultSELConfig()
	selCfg.Seed = seed
	m := machine.New(selCfg.MachineConfig(seed + 1))

	var prot *guard.Protection
	flight, plan := raw, guard.Plan{Scheme: fault.SchemeUnprotectedParallel, Executors: 3}
	if shielded {
		det, err := TrainILD(selCfg)
		if err != nil {
			return out, err
		}
		prot = guard.NewProtection(m, det, nil)
		flight, plan = bubbled, guard.RedundancyTMR.Plan()
	}

	rad := radiation{events: events}
	nextContact := 3 * time.Hour
	var payloadErr error
	m.RunTrace(flight, func(tel machine.Telemetry) {
		rad.deliver(m, tel.T)
		if prot != nil {
			if _, _, cycled := prot.Observe(tel); cycled {
				out.LatchupsCleared++
			}
		}
		if tel.T >= nextContact && payloadErr == nil {
			nextContact += 3 * time.Hour
			res, err := rad.payloadContact(plan, seed+int64(tel.T), golden)
			if err != nil {
				payloadErr = err
				return
			}
			out.SEUsOutvoted += res.corrected
			out.SDC = out.SDC || res.sdc
		}
	})
	if payloadErr != nil {
		return out, payloadErr
	}
	out.Damaged = m.Damaged()
	return out, nil
}
