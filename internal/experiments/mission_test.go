package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"radshield/internal/fault"
	"radshield/internal/mission"
)

func TestMissionSurvivalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo mission campaign")
	}
	c := DefaultMissionConfig()
	c.Missions = 3
	c.Duration = 8 * time.Hour
	protected, unprotected, tbl, err := MissionSurvival(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if protected.Survived != c.Missions {
		t.Errorf("Radshield arm survived %d/%d missions", protected.Survived, c.Missions)
	}
	if protected.LatchupsCleared == 0 {
		t.Error("no latchups cleared — boost rates for a meaningful campaign")
	}
	if unprotected.Survived == c.Missions {
		t.Error("unprotected arm survived everything — environment too gentle")
	}
	if unprotected.LostToLatchup == 0 {
		t.Error("no latchup losses in the unprotected arm")
	}
}

// TestMissionSurvivalRejectsUnflyable: a boost that is not finite, one
// that expects more events than a schedule may hold, and a mission of
// no length each fail the campaign in profile validation, before it
// probes the result store, and so before the golden payload run or any
// detector training, which come after the probe.
func TestMissionSurvivalRejectsUnflyable(t *testing.T) {
	store := openCacheStore(t, t.TempDir())
	defer closeCacheStore(t, store)
	for _, tc := range []struct {
		name     string
		missions int
		boost    float64
		dur      time.Duration
		want     string
	}{
		{"NaN boost", 1, math.NaN(), time.Hour, "mission: profile"},
		{"+Inf boost", 1, math.Inf(1), time.Hour, "mission: profile"},
		{"boost past the event bound", 1, 1e11, time.Hour, "mission: profile"},
		{"zero duration", 1, 600, 0, "mission: profile"},
		{"zero missions", 0, 600, time.Hour, "Missions = 0"},
		{"negative missions", -1, 600, time.Hour, "Missions = -1"},
	} {
		c := MissionConfig{Missions: tc.missions, Duration: tc.dur, RateBoost: tc.boost, Seed: 3, Workers: 1, Cache: store}
		_, _, _, err := MissionSurvival(c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.want)
		}
		if st := store.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("%s: the campaign probed the result store (%d lookups) before failing", tc.name, st.Hits+st.Misses)
		}
	}
}

// TestFlightPlanMatchesHandBoostedLEO holds the mission campaign's
// flight plan to the one it drew before it flew a profile: fault.LEO
// with its rates boosted by hand and drawn by Environment.Schedule, then
// the pair's trace from the same stream.
func TestFlightPlanMatchesHandBoostedLEO(t *testing.T) {
	sel := DefaultSELConfig()
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	var flown int
	for _, boost := range []float64{1, 600, 6000, 60000} {
		for _, dur := range []time.Duration{20 * time.Minute, time.Hour, 4 * time.Hour, 12 * time.Hour} {
			prof := mission.Profile{
				Name:  fault.LEO.Name,
				Base:  fault.LEO,
				Phase: []mission.Phase{mission.NewPhase(mission.PhaseLEO, dur)},
			}.Boosted(boost)
			env := fault.LEO
			env.SELPerYear *= boost
			env.SEUPerDay *= boost / 10
			for seed := int64(0); seed < seeds; seed++ {
				events, raw, bubbled, err := sel.FlightPlan(prof, seed, sel.BubblePause())
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				want := env.Schedule(rng, dur)
				if len(events) != len(want) {
					t.Fatalf("boost %g, %v, seed %d: %d events, hand-boosted schedule %d", boost, dur, seed, len(events), len(want))
				}
				for i := range want {
					if events[i] != want[i] {
						t.Fatalf("boost %g, %v, seed %d: event %d is %+v, want %+v", boost, dur, seed, i, events[i], want[i])
					}
				}
				flown += len(events)
				wantRaw, wantBubbled := sel.PairTrace(rng, dur, sel.BubblePause(), nil)
				if !reflect.DeepEqual(raw, wantRaw) || !reflect.DeepEqual(bubbled, wantBubbled) {
					t.Fatalf("boost %g, %v, seed %d: the trace differs from the one drawn after the schedule", boost, dur, seed)
				}
			}
		}
	}
	if flown == 0 {
		t.Fatal("the grid scheduled no events")
	}
}
