package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/trace"
)

// ThresholdPoint is one row of the decision-threshold sweep.
type ThresholdPoint struct {
	ThresholdA        float64
	FalseNegativeRate float64 // per SEL episode
	FalsePositiveRate float64 // per clean quiescent sample
}

// ThresholdSweep reproduces the paper's threshold-selection procedure
// (§3.1): "a difference between 0.04A to 0.08A was tested against
// simulated datasets in 0.005A increments, and 0.055A presented no false
// negative rates while minimizing false positive rates."
//
// One detector per candidate threshold (same trained model) observes
// clean quiescence (counting per-sample false positives) and +0.07 A
// SEL episodes (counting per-episode misses).
func ThresholdSweep(c SELConfig, episodes int) ([]ThresholdPoint, *Table, error) {
	thresholds := []float64{0.040, 0.045, 0.050, 0.055, 0.060, 0.065, 0.070, 0.075, 0.080}

	cache := cacheArms[ThresholdPoint](c.Cache, "threshold", len(thresholds),
		func(ti int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Int(int64(episodes))
			e.Float(thresholds[ti])
		})
	// Latchups strike and clear on a fixed schedule, never on a
	// detection, so every threshold judges the identical stream: one
	// trial flies it once past all nine detectors.
	sweeps, err := sched.Map(1, c.Workers, func(int) ([]ThresholdPoint, error) {
		return cache.CachedArms(func([]bool) ([]ThresholdPoint, error) {
			return sweepThresholds(c, thresholds, episodes)
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}
	points := sweeps[0]

	tbl := &Table{
		Title:  "Decision-threshold sweep (paper §3.1: 0.055 A chosen)",
		Header: []string{"Threshold (A)", "FalseNegRate", "FalsePosRate"},
	}
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.3f", p.ThresholdA), pct(p.FalseNegativeRate), pct(p.FalsePositiveRate))
	}
	return points, tbl, nil
}

// sweepThresholds trains the model and flies the sweep's campaign once,
// one detector per threshold observing it.
func sweepThresholds(c SELConfig, thresholds []float64, episodes int) ([]ThresholdPoint, error) {
	base, err := TrainILD(c)
	if err != nil {
		return nil, err
	}
	dets := make([]*ild.Detector, len(thresholds))
	for i, th := range thresholds {
		cfg := c.ildConfig()
		cfg.ThresholdA = th
		if dets[i], err = ild.NewDetector(base.Model(), cfg); err != nil {
			return nil, err
		}
	}

	// Clean phase: long quiescence, no SEL — count FP samples.
	m := machine.New(c.MachineConfig(c.Seed + 700))
	rng := rand.New(rand.NewSource(c.Seed + 701))
	fp, clean := make([]int, len(dets)), 0
	m.RunTrace(trace.Quiescent(rng, 4*time.Minute, 15*time.Second), func(tel machine.Telemetry) {
		clean++
		for i, det := range dets {
			if det.Observe(tel) {
				fp[i]++
			}
		}
	})

	// Episode phase: SEL episodes at the paper's minimum magnitude.
	missed := latchupEpisodes(m, rng, dets, c.SELAmps, episodes, 15*time.Second, 15*time.Second, 10*time.Second)

	points := make([]ThresholdPoint, len(thresholds))
	for i, th := range thresholds {
		points[i] = ThresholdPoint{
			ThresholdA:        th,
			FalseNegativeRate: float64(missed[i]) / float64(episodes),
			FalsePositiveRate: float64(fp[i]) / float64(clean),
		}
	}
	return points, nil
}
