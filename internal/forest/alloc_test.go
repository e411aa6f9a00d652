//go:build !race

// Allocation-regression test for forest prediction: the Table 2 baseline
// classifies every telemetry sample of an 8 h flight, so one allocation
// per Predict was 90% of that campaign's heap objects (see
// PERFORMANCE.md). Excluded under -race: race instrumentation allocates
// on its own.

package forest

import (
	"math/rand"
	"testing"
)

func TestAllocsForestPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := separableDataset(rng, 500)
	f := Train(X, y, Config{Trees: 20, Seed: 2})
	x := []float64{3.3, 7.7}
	avg := testing.AllocsPerRun(1000, func() { f.Predict(x) })
	if avg != 0 {
		t.Errorf("Predict allocates %.3f objects per call, want 0", avg)
	}
}
