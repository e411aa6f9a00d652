package experiments

import (
	"math"
	"testing"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/fault"
	"radshield/internal/mission"
)

// equivAdaptiveProfiles are the test-scale mission profiles: one
// SAA-crossing LEO orbit and one storm drill, both ~18 minutes, with
// quiet cruise on either side of the hot phase so the quiet-overhead
// comparison has contacts landing in both buckets.
func equivAdaptiveProfiles() []mission.Profile {
	return []mission.Profile{
		{
			Name: "mini-leo-saa",
			Base: fault.LEO,
			Phase: []mission.Phase{
				mission.NewPhase(mission.PhaseLEO, 6*time.Minute),
				mission.NewPhase(mission.PhaseSAA, 6*time.Minute),
				mission.NewPhase(mission.PhaseLEO, 6*time.Minute),
			},
		},
		{
			Name: "mini-storm",
			Base: fault.LEO,
			Phase: []mission.Phase{
				mission.NewPhase(mission.PhaseLEO, 6*time.Minute),
				mission.NewPhase(mission.PhaseSolarStorm, 5*time.Minute),
				mission.NewPhase(mission.PhaseLEO, 7*time.Minute),
			},
		},
	}
}

// equivAdaptive shrinks the adaptive campaign to test scale: 18-minute
// missions, contacts every 5 minutes, a controller wound tight enough
// (short window, short dwell) that the hot phase drives visible ladder
// moves within the mission.
func equivAdaptive(workers int) AdaptiveCampaignConfig {
	c := DefaultAdaptiveCampaignConfig()
	c.SEL.Workers = workers
	c.Profiles = equivAdaptiveProfiles()
	c.RateBoost = 60000
	c.ContactEvery = 5 * time.Minute
	c.Controller.Window = 4 * time.Minute
	c.Controller.HoldFor = 5 * time.Minute
	c.Drain = 5 * time.Minute
	return c
}

// TestAdaptiveCampaignValidation: every invalid config fails before
// the campaign probes the result store, and so before the detector
// training and golden payload run that come after the probe. A boost
// is validated on the profiles it boosts.
func TestAdaptiveCampaignValidation(t *testing.T) {
	store := openCacheStore(t, t.TempDir())
	defer closeCacheStore(t, store)
	for i, mod := range []func(*AdaptiveCampaignConfig){
		func(c *AdaptiveCampaignConfig) { c.Profiles = nil },
		func(c *AdaptiveCampaignConfig) { c.Profiles = []mission.Profile{{Name: "empty", Base: fault.LEO}} },
		func(c *AdaptiveCampaignConfig) { c.RateBoost = 0 },
		func(c *AdaptiveCampaignConfig) { c.RateBoost = math.NaN() },
		func(c *AdaptiveCampaignConfig) { c.RateBoost = math.Inf(1) },
		func(c *AdaptiveCampaignConfig) { c.RateBoost = 1e11 },
		func(c *AdaptiveCampaignConfig) { c.ContactEvery = 0 },
		func(c *AdaptiveCampaignConfig) { c.Controller.Window = -time.Second },
		func(c *AdaptiveCampaignConfig) { c.Controller.RelaxBelow = c.Controller.EscalateAt },
	} {
		c := DefaultAdaptiveCampaignConfig()
		c.SEL.Cache = store
		mod(&c)
		if _, _, err := AdaptiveCampaign(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if st := store.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("case %d: the campaign probed the result store (%d lookups) before failing", i, st.Hits+st.Misses)
		}
	}
}

// TestAdaptiveCampaignOutcomes is the ISSUE acceptance shape at test
// scale: on every profile the adaptive arm's survival and missed-SEL
// numbers are no worse than the always-max static arm's, while its
// quiet-phase protection overhead (bubble time and payload energy) is
// measurably lower.
func TestAdaptiveCampaignOutcomes(t *testing.T) {
	trials, tbl, err := AdaptiveCampaign(equivAdaptive(0))
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(trials) != 2 {
		t.Fatalf("got %d trials, want 2", len(trials))
	}
	var moves int
	for _, tr := range trials {
		st, ad := tr.Static, tr.Adaptive
		if !st.Survived {
			t.Errorf("%s: static arm lost the board — the testbed is broken", tr.Profile)
		}
		if ad.Survived != st.Survived {
			t.Errorf("%s: adaptive survived=%v, static=%v", tr.Profile, ad.Survived, st.Survived)
		}
		if ad.MissedSELs > st.MissedSELs {
			t.Errorf("%s: adaptive missed %d SELs, static %d", tr.Profile, ad.MissedSELs, st.MissedSELs)
		}
		if ad.SDC && !st.SDC {
			t.Errorf("%s: adaptive arm downlinked corrupt data, static did not", tr.Profile)
		}
		// The overhead claim: measurably cheaper quiet phases.
		if ad.QuietBubble >= st.QuietBubble {
			t.Errorf("%s: adaptive quiet bubble time %v not below static %v",
				tr.Profile, ad.QuietBubble, st.QuietBubble)
		}
		if st.QuietJ > 0 && ad.QuietJ >= st.QuietJ {
			t.Errorf("%s: adaptive quiet payload energy %.1f J not below static %.1f J",
				tr.Profile, ad.QuietJ, st.QuietJ)
		}
		// The static arm's posture never moves; its dwell is all-max.
		if st.FinalLevel != adapt.LevelMax || st.Dwell[adapt.LevelMax] == 0 {
			t.Errorf("%s: static arm dwell %v final %v", tr.Profile, st.Dwell, st.FinalLevel)
		}
		moves += len(tr.Moves)
		for i := 1; i < len(tr.Moves); i++ {
			if tr.Moves[i].T < tr.Moves[i-1].T {
				t.Errorf("%s: decision trace out of order at move %d", tr.Profile, i)
			}
		}
		if ad.P0Enqueued == 0 || st.P0Enqueued == 0 {
			t.Errorf("%s: no priority events enqueued (ad=%d st=%d)", tr.Profile, ad.P0Enqueued, st.P0Enqueued)
		}
	}
	// Across the hot-phase profiles the controller must actually move:
	// an empty campaign-wide trace means the closed loop is dead.
	if moves == 0 {
		t.Error("no ladder moves across any profile — controller never engaged")
	}
}
