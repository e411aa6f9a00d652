package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/ild"
	"radshield/internal/linmodel"
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
// For each candidate threshold, one detector (same trained model)
// observes clean quiescence (counting per-sample false positives) and
// +0.07 A SEL episodes (counting per-episode misses).
func ThresholdSweep(c SELConfig, episodes int) ([]ThresholdPoint, *Table, error) {
	// Every candidate threshold re-runs the identical campaign (same
	// machine seeds, same traces) with its own detector instance over the
	// shared read-only model, so levels are independent scheduler trials.
	thresholds := []float64{0.040, 0.045, 0.050, 0.055, 0.060, 0.065, 0.070, 0.075, 0.080}

	cache := cacheArms[ThresholdPoint](c.Cache, "threshold", len(thresholds),
		func(ti int, e *resultcache.Enc) {
			encSELConfig(e, c)
			e.Int(int64(episodes))
			e.Float(thresholds[ti])
		})

	var model *linmodel.Model
	if !cache.AllHit() {
		base, err := TrainILD(c)
		if err != nil {
			return nil, nil, err
		}
		model = base.Model()
	}

	tbl := &Table{
		Title:  "Decision-threshold sweep (paper §3.1: 0.055 A chosen)",
		Header: []string{"Threshold (A)", "FalseNegRate", "FalsePosRate"},
	}
	points, err := sched.Map(len(thresholds), c.Workers, func(ti int) (ThresholdPoint, error) {
		return cache.CachedArm(ti, func() (ThresholdPoint, error) {
			return thresholdLevel(c, model, thresholds[ti], episodes)
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.3f", p.ThresholdA), pct(p.FalseNegativeRate), pct(p.FalsePositiveRate))
	}
	return points, tbl, nil
}

// thresholdLevel computes one candidate threshold's campaign arm.
func thresholdLevel(c SELConfig, model *linmodel.Model, th float64, episodes int) (ThresholdPoint, error) {
	cfg := c.ildConfig()
	cfg.ThresholdA = th
	det, err := ild.NewDetector(model, cfg)
	if err != nil {
		return ThresholdPoint{}, err
	}

	// Clean phase: long quiescence, no SEL — count FP samples.
	m := machine.New(c.MachineConfig(c.Seed + 700))
	rng := rand.New(rand.NewSource(c.Seed + 701))
	fp, clean := 0, 0
	m.RunTrace(trace.Quiescent(rng, 4*time.Minute, 15*time.Second), func(tel machine.Telemetry) {
		clean++
		if det.Observe(tel) {
			fp++
		}
	})

	// Episode phase: SEL episodes at the paper's minimum magnitude.
	missed := 0
	for ep := 0; ep < episodes; ep++ {
		det.Reset()
		injectSEL(m, c.SELAmps)
		hit := false
		m.RunTrace(trace.Quiescent(rng, time.Minute, 15*time.Second), func(tel machine.Telemetry) {
			if det.Observe(tel) {
				hit = true
			}
		})
		m.ClearSEL()
		det.Reset()
		m.RunTrace(trace.Quiescent(rng, 15*time.Second, 10*time.Second), nil)
		if !hit {
			missed++
		}
	}

	return ThresholdPoint{
		ThresholdA:        th,
		FalseNegativeRate: float64(missed) / float64(episodes),
		FalsePositiveRate: float64(fp) / float64(clean),
	}, nil
}
