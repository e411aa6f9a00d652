package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"radshield/internal/forest"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/stats"
	"radshield/internal/trace"
)

// FeatureSelection reproduces the paper's §3.1 metric-selection step:
// "These counters were chosen by first creating a random forest to model
// current draw, and then selecting the most important features in the
// resulting random forest model."
//
// The candidate set is the Table 1 counters plus deliberately useless
// distractors (sensor noise replayed as a "metric", a constant, a
// counter unrelated to power). The forest is trained to predict the
// current-draw quartile; real activity counters must dominate the
// importance ranking and every distractor must rank near zero.
type FeatureSelectionResult struct {
	Names      []string
	Importance []float64
	// TopCounters is the importance mass carried by genuine counters.
	TopCounters float64
	// DistractorMass is the importance mass carried by distractors.
	DistractorMass float64
	Tbl            *Table
}

// distractor feature count appended after the genuine features.
const nDistractors = 3

// FeatureSelection runs the selection experiment over a stepped compute
// trace.
func FeatureSelection(c SELConfig) *FeatureSelectionResult {
	mc := c.MachineConfig(c.Seed + 900)
	m := machine.New(mc)
	rng := rand.New(rand.NewSource(c.Seed + 901))

	var X [][]float64
	var currents []float64
	tr := trace.MatMulSteps(mc.Cores, machine.MinFreqHz, machine.MaxFreqHz, 100e6, 200*time.Millisecond)
	tr.Append(trace.Burst(rng, 10*time.Second, mc.Cores).Segments...)
	tr.Append(trace.Quiescent(rng, 10*time.Second, 2*time.Second).Segments...)
	m.RunTrace(tr, func(tel machine.Telemetry) {
		row := ild.AppendFeatures(make([]float64, 0, ild.FeatureDim(len(tel.PerCore))+nDistractors), tel)
		row = append(row,
			rng.NormFloat64(),      // pure noise
			1.0,                    // constant
			float64(len(row))*0.25, // another constant dressed as a metric
		)
		X = append(X, row)
		currents = append(currents, tel.CurrentA)
	})

	// Quartile-bin the current for the classifier.
	q1 := stats.Quantile(currents, 0.25)
	q2 := stats.Quantile(currents, 0.5)
	q3 := stats.Quantile(currents, 0.75)
	y := make([]int, len(currents))
	for i, cur := range currents {
		switch {
		case cur < q1:
			y[i] = 0
		case cur < q2:
			y[i] = 1
		case cur < q3:
			y[i] = 2
		default:
			y[i] = 3
		}
	}
	// Generous leaves keep the trees from memorizing per-row noise, so a
	// useless distractor cannot buy importance by overfitting.
	f := forest.Train(X, y, forest.Config{Trees: 30, MaxDepth: 8, MinLeaf: 25, FeatureFrac: 1, Seed: c.Seed})

	names := append(ild.FeatureNames(mc.Cores), "distractor.noise", "distractor.const1", "distractor.const2")
	imp := f.Importance()
	res := &FeatureSelectionResult{Names: names, Importance: imp}
	for i, v := range imp {
		if i >= len(imp)-nDistractors {
			res.DistractorMass += v
		} else {
			res.TopCounters += v
		}
	}

	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	tbl := &Table{
		Title:  "Feature selection: random-forest importance for current prediction (§3.1)",
		Header: []string{"Rank", "Metric", "Importance"},
	}
	for rank, i := range idx {
		if rank >= 10 {
			break
		}
		tbl.AddRow(fmt.Sprint(rank+1), names[i], fmt.Sprintf("%.4f", imp[i]))
	}
	res.Tbl = tbl
	return res
}
