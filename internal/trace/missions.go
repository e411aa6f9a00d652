package trace

import (
	"math/rand"
	"time"
)

// Mission-profile generators beyond the generic flight-software pattern:
// the two deployment classes the paper's §5 describes (a Mars-surface
// rover coprocessor and a LEO SmallSat) plus deep-space cruise. They
// matter to ILD because detection opportunities are quiescent time —
// these profiles bound how often the detector naturally gets to look.

// MarsSolHours is one Mars solar day in hours (24.66 h; the paper quotes
// 24.7).
const MarsSolHours = 24.66

// MarsSol generates one sol of rover-coprocessor activity: a morning
// uplink burst, intense drive-time compute (the global localization runs
// of the paper's §5) through the Martian midday, an afternoon downlink
// burst, and a long overnight quiescent stretch — rovers are
// solar-powered and sleep through the night.
func MarsSol(rng *rand.Rand, cores int) *Trace {
	sol := time.Duration(MarsSolHours * float64(time.Hour))
	b := newBuilder()

	// Overnight (≈40 % of the sol): deep quiescence, sparse housekeeping.
	night := time.Duration(0.40 * float64(sol))
	b.quiescent(rng, night/2, time.Minute)

	// Morning uplink + planning burst.
	b.burst(rng, 20*time.Minute, cores)

	// Drive window: alternating localization compute and imaging pauses.
	driveEnd := time.Duration(0.75 * float64(sol))
	for b.total < driveEnd {
		b.burst(rng, 5*time.Minute+time.Duration(rng.Int63n(int64(10*time.Minute))), cores)
		b.quiescent(rng, 2*time.Minute+time.Duration(rng.Int63n(int64(5*time.Minute))), 20*time.Second)
	}

	// Afternoon downlink burst, then the rest of the night.
	b.burst(rng, 15*time.Minute, cores)
	if rem := sol - b.total; rem > 0 {
		b.quiescent(rng, rem, time.Minute)
	}
	return clip(b.t, sol)
}

// DeepSpaceCruise generates a long cruise-phase profile: overwhelmingly
// quiescent, with a brief navigation/telemetry burst once per
// checkInterval — the quietest profile ILD sees, and the one with the
// most natural detection opportunities.
func DeepSpaceCruise(rng *rand.Rand, total, checkInterval time.Duration, cores int) *Trace {
	b := newBuilder()
	for b.total < total {
		quiet := checkInterval - 5*time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))
		if quiet < 0 {
			quiet = checkInterval / 2
		}
		b.quiescent(rng, quiet, time.Minute)
		if b.total >= total {
			break
		}
		b.burst(rng, 3*time.Minute+time.Duration(rng.Int63n(int64(4*time.Minute))), cores)
	}
	return clip(b.t, total)
}

// GroundTestbed generates the paper's §4.1 bench profile: the
// F´-style flight-software workload cycling continuously with induced
// quiescence every three minutes — the trace the 960-hour campaign ran.
func GroundTestbed(rng *rand.Rand, total time.Duration, cores int) *Trace {
	b := newBuilder()
	for b.total < total {
		b.burst(rng, 3*time.Minute, cores)
		b.quiescent(rng, 20*time.Second, 10*time.Second)
	}
	return clip(b.t, total)
}
