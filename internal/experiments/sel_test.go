package experiments

import (
	"testing"
	"time"

	"radshield/internal/telemetry"
)

// quickSEL shrinks the campaign for unit-test latency while keeping
// enough episodes for stable rates.
func quickSEL() SELConfig {
	c := DefaultSELConfig()
	c.Duration = 90 * time.Minute
	return c
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	results, tbl, err := Table2(quickSEL())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	byName := map[string]DetectorAccuracyResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	ild := byName["ILD"]
	if ild.Episodes < 2 {
		t.Fatalf("only %d episodes; campaign too short", ild.Episodes)
	}
	// Paper Table 2: ILD has 0% FN and ~0.02% FP.
	if ild.FalseNegativeRate != 0 {
		t.Errorf("ILD FNR = %v, want 0", ild.FalseNegativeRate)
	}
	if ild.FalsePositiveRate > 0.005 {
		t.Errorf("ILD FPR = %v, want ≈0.0002", ild.FalsePositiveRate)
	}
	// Every baseline is at least an order of magnitude worse on at least
	// one axis (paper: 27–62% rates).
	for _, name := range []string{"RandomForest", "Static 1.75A", "Static 1.80A", "Static 1.85A"} {
		r := byName[name]
		if r.FalseNegativeRate < 0.1 && r.FalsePositiveRate < 0.1 {
			t.Errorf("%s: FNR=%.3f FPR=%.3f — baseline unexpectedly competitive",
				name, r.FalseNegativeRate, r.FalsePositiveRate)
		}
	}
	// Static thresholds: raising the level trades FN up for FP down.
	lo, hi := byName["Static 1.75A"], byName["Static 1.85A"]
	if hi.FalsePositiveRate > lo.FalsePositiveRate {
		t.Errorf("raising threshold increased FPR: %.3f → %.3f", lo.FalsePositiveRate, hi.FalsePositiveRate)
	}
}

func TestFig10KneeNearThreshold(t *testing.T) {
	c := quickSEL()
	fig, err := Fig10(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	s := fig.Series[0]
	if len(s.X) != 10 {
		t.Fatalf("sweep points = %d, want 10", len(s.X))
	}
	// Below the 0.055 A decision threshold: missed. Well above: always
	// caught (paper: no FN beyond 0.05 A).
	for i := range s.X {
		switch {
		case s.X[i] <= 0.045:
			if s.Y[i] != 1 {
				t.Errorf("amps %.2f: FNR = %v, want 1 (below threshold)", s.X[i], s.Y[i])
			}
		case s.X[i] >= 0.065:
			if s.Y[i] != 0 {
				t.Errorf("amps %.2f: FNR = %v, want 0", s.X[i], s.Y[i])
			}
		}
	}
}

func TestTable3Overhead(t *testing.T) {
	tbl := Table3(19 * time.Second)
	t.Logf("\n%s", tbl)
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) != 2 {
		t.Fatalf("unexpected table shape: %+v", tbl.Rows)
	}
}

func TestFig2ThresholdBlindToMicroSEL(t *testing.T) {
	res := Fig2(DefaultSELConfig())
	// The paper's Figure 2 story: workload activity crosses the 4 A trip
	// line, the latched-but-quiescent system never does.
	if !res.CrossesNominal {
		t.Errorf("nominal workload peak %.2f A never crossed the %.1f A trip line", res.MaxNominalA, res.ThresholdA)
	}
	if res.CrossesLatched {
		t.Errorf("quiescent+SEL current %.2f A crossed the trip line — SEL should be invisible to it", res.MaxLatchedA)
	}
	if len(res.Fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Fig.Series))
	}
}

func TestFig5HighCorrelation(t *testing.T) {
	res := Fig5(DefaultSELConfig())
	// Paper: 99.7% correlation between current draw and CPU activity.
	if res.Correlation < 0.95 {
		t.Fatalf("correlation = %.4f, want ≥0.95", res.Correlation)
	}
}

func TestAblationRollingMin(t *testing.T) {
	tbl := AblationRollingMin(DefaultSELConfig())
	t.Logf("\n%s", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationQuiescenceGate(t *testing.T) {
	c := DefaultSELConfig()
	tbl, err := AblationQuiescenceGate(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	// Row 0 = gated, row 1 = ungated: the gated variant must have zero
	// false positives under load; the ungated variant should misfire.
	if tbl.Rows[0][1] != "0" {
		t.Errorf("gated ILD fired under load: %v", tbl.Rows[0])
	}
	if tbl.Rows[1][1] == "0" {
		t.Errorf("ungated variant never misfired under load — gate appears unnecessary: %v", tbl.Rows[1])
	}
}

func TestAblationBubbleCadence(t *testing.T) {
	tbl := AblationBubbleCadence()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationClassifier(t *testing.T) {
	c := DefaultSELConfig()
	c.TrainFor = time.Minute
	c.Telemetry = telemetry.NewRegistry(64)
	tbl, err := AblationClassifier(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	// Only the latched evaluation pass is a flight latchup: the training
	// boards fly without the campaign's registry.
	snap := c.Telemetry.Snapshot()
	if got := snap.Counter("machine_sel_injected_total"); got != 1 {
		t.Errorf("machine_sel_injected_total = %d, want 1", got)
	}
	onsets := 0
	for _, ev := range snap.Events {
		if ev.Kind == telemetry.KindSELOnset {
			onsets++
		}
	}
	if onsets != 1 {
		t.Errorf("%d sel_onset events, want 1", onsets)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 models", len(tbl.Rows))
	}
	// The linear+window ILD row must be near-clean on both axes (the
	// paper's reason for choosing it). Per-sample accounting charges the
	// 3 s window-fill latency at the start of each episode as misses, so
	// a few percent FN is expected; FP must be zero.
	if tbl.Rows[0][2] != "0.00%" {
		t.Errorf("ILD FPR row = %v, want 0.00%% false positives", tbl.Rows[0])
	}
}
