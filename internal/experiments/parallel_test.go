package experiments

import (
	"fmt"
	"testing"
	"time"
)

// Golden-equivalence tests for the parallel campaign scheduler: every
// converted campaign must render byte-identical output at any worker
// width. Each test runs the campaign serially (workers=1) to produce
// the golden rendering, then re-runs it at widths 2 and 4 and diffs.
//
// The CI determinism job additionally runs this file under -race at
// GOMAXPROCS=1,2,8.

// assertWidthInvariant runs the campaign at widths 1 (golden), 2 and 4
// and fails on the first byte difference.
func assertWidthInvariant(t *testing.T, run func(workers int) (string, error)) {
	t.Helper()
	golden, err := run(1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if golden == "" {
		t.Fatal("workers=1 rendered nothing")
	}
	for _, w := range []int{2, 4} {
		got, err := run(w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got != golden {
			t.Errorf("workers=%d output differs from serial run\n--- serial ---\n%s\n--- workers=%d ---\n%s", w, golden, w, got)
		}
	}
}

// equivSEL is a short flight campaign: long enough for two SEL episodes
// (SELEvery is 30 min) so Table2's episode bookkeeping is exercised.
func equivSEL(workers int) SELConfig {
	c := DefaultSELConfig()
	c.Duration = 60 * time.Minute
	c.Workers = workers
	return c
}

func TestParallelEquivalenceTable2(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := Table2(equivSEL(workers))
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceFig10(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		fig, err := Fig10(equivSEL(workers), 2)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	})
}

func TestParallelEquivalenceThresholdSweep(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := ThresholdSweep(equivSEL(workers), 2)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceMissionSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo mission campaign")
	}
	assertWidthInvariant(t, func(workers int) (string, error) {
		c := DefaultMissionConfig()
		c.Missions = 3
		c.Duration = 2 * time.Hour
		c.Workers = workers
		_, _, tbl, err := MissionSurvival(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceTable7(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		cfg := Table7Config{Runs: 4, Size: 16 << 10, Seed: 7, Workers: workers}
		_, tbl, err := Table7(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceFig11(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		seu := SEUConfig{Size: 16 << 10, Seed: 42, Workers: workers}
		_, tbl, err := Fig11(seu)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceMissionProfiles(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl := MissionProfiles(1, workers)
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceOSFaultCampaign(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := OSFaultCampaign(equivOSFault(workers))
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceAdaptiveCampaign(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := AdaptiveCampaign(equivAdaptive(workers))
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

func TestParallelEquivalenceAblations(t *testing.T) {
	sel := equivSEL(0) // width set per run below
	seu := SEUConfig{Size: 32 << 10, Seed: 42}
	assertWidthInvariant(t, func(workers int) (string, error) {
		sel.Workers = workers
		seu.Workers = workers
		out := AblationRollingMin(sel).String()
		gate, err := AblationQuiescenceGate(sel)
		if err != nil {
			return "", err
		}
		out += gate.String()
		ecc, err := AblationCacheECC(seu)
		if err != nil {
			return "", err
		}
		out += ecc.String()
		return out, nil
	})
}

// minParallelSpeedup floors the mission campaign's speedup over its
// serial run at 2 and 4 workers, on every host. It sits below 1.0 so a
// single-core host, where every width degenerates to serial minus
// scheduling overhead, stays out of the flake zone, while the 0.80×
// regression it exists for (a per-trial allocation storm that made every
// worker queue on the GC; PERFORMANCE.md) is still caught.
const minParallelSpeedup = 0.9

// BenchmarkMissionSurvivalParallel measures the campaign scheduler's
// scaling: the same mission campaign at widths 1, 2 and 4, reporting
// each width's speedup over the serial run as a custom metric, and
// failing when a wider run falls under minParallelSpeedup. CI runs it
// once per commit (-benchtime 1x).
func BenchmarkMissionSurvivalParallel(b *testing.B) {
	cfg := DefaultMissionConfig()
	cfg.Missions = 8
	cfg.Duration = 2 * time.Hour
	var serial time.Duration
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, _, _, err := MissionSurvival(cfg); err != nil {
					b.Fatal(err)
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			if w == 1 {
				serial = perOp
			}
			if serial == 0 {
				return // -bench filtered out the serial run: no ratio to report
			}
			speedup := float64(serial) / float64(perOp)
			b.ReportMetric(speedup, "speedup")
			if speedup < minParallelSpeedup {
				b.Errorf("speedup %.2f at %d workers, want at least %.1f", speedup, w, minParallelSpeedup)
			}
		})
	}
}
