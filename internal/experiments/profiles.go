package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/sched"
	"radshield/internal/trace"
)

// ProfileStats quantifies §3.1's premise for one mission profile:
// "quiescent periods occur frequently in spacecraft" — and where they do
// not, bubbles restore them.
type ProfileStats struct {
	Profile           string
	QuiescentFraction float64
	// OpportunitiesPerHour counts natural quiescent stretches long
	// enough for a full detection window (sustain + margin).
	OpportunitiesPerHour float64
	// WorstGap is the longest stretch without a detection opportunity,
	// before and after bubble injection.
	WorstGap        time.Duration
	WorstGapBubbled time.Duration
}

// MissionProfiles analyses the four mission profiles the deployments in
// the paper's §5 span. Each profile is one scheduler trial with its own
// seeded RNG; workers <= 0 means one per CPU.
func MissionProfiles(seed int64, workers int) ([]ProfileStats, *Table) {
	cores := machine.DefaultConfig().Cores
	// A detection opportunity is a quiescent stretch one flight bubble
	// long: ILD's sustain window plus the boundary margin.
	sel := DefaultSELConfig()
	minWindow := sel.BubbleLen()
	policy := ild.BubblePolicy{BubbleLen: minWindow, Pause: sel.BubblePause()}

	profiles := []struct {
		name string
		gen  func(rng *rand.Rand) *trace.Trace
	}{
		{"ground-testbed", func(rng *rand.Rand) *trace.Trace { return trace.GroundTestbed(rng, 6*time.Hour, cores) }},
		{"leo-smallsat", func(rng *rand.Rand) *trace.Trace { return trace.FlightSoftware(rng, 6*time.Hour, cores) }},
		{"mars-sol", func(rng *rand.Rand) *trace.Trace { return trace.MarsSol(rng, cores) }},
		{"deep-space-cruise", func(rng *rand.Rand) *trace.Trace { return trace.DeepSpaceCruise(rng, 6*time.Hour, time.Hour, cores) }},
	}

	tbl := &Table{
		Title:  "Mission profiles: natural detection opportunities (§3.1 premise)",
		Header: []string{"Profile", "Quiescent", "Opportunities/hr", "Worst gap", "Worst gap (bubbled)"},
	}
	// Trace generation never fails, so the scheduler error path is
	// unreachable here; panics still propagate.
	out, _ := sched.Map(len(profiles), workers, func(i int) (ProfileStats, error) {
		p := profiles[i]
		rng := rand.New(rand.NewSource(seed + int64(i)))
		tr := p.gen(rng)
		opps, worst := opportunityStats(tr, minWindow)
		_, worstBubbled := opportunityStats(ild.InjectBubbles(tr, policy), minWindow)
		return ProfileStats{
			Profile:              p.name,
			QuiescentFraction:    tr.QuiescentFraction(),
			OpportunitiesPerHour: float64(opps) / tr.Total().Hours(),
			WorstGap:             worst,
			WorstGapBubbled:      worstBubbled,
		}, nil
	})
	for _, st := range out {
		tbl.AddRow(st.Profile, pct(st.QuiescentFraction),
			fmt.Sprintf("%.1f", st.OpportunitiesPerHour),
			st.WorstGap.Round(time.Second).String(),
			st.WorstGapBubbled.Round(time.Second).String())
	}
	return out, tbl
}

// opportunityStats walks a trace counting disjoint minWindow-long
// detection slots inside quiescent time (housekeeping counts as
// quiescent, matching the detector's CPU-load gate) and the longest
// stretch between completed slots.
func opportunityStats(tr *trace.Trace, minWindow time.Duration) (count int, worstGap time.Duration) {
	var quietRun, sinceOpp time.Duration
	for _, s := range tr.Segments {
		if s.Kind == trace.Workload {
			quietRun = 0
			sinceOpp += s.Duration
			continue
		}
		remaining := s.Duration
		for remaining > 0 {
			need := minWindow - quietRun
			if remaining >= need {
				count++
				quietRun = 0
				remaining -= need
				sinceOpp += need
				if sinceOpp > worstGap {
					worstGap = sinceOpp
				}
				sinceOpp = 0
			} else {
				quietRun += remaining
				sinceOpp += remaining
				remaining = 0
			}
		}
	}
	if sinceOpp > worstGap {
		worstGap = sinceOpp
	}
	return count, worstGap
}
