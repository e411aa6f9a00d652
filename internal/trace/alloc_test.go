//go:build !race

// Allocation-regression test for trace generation. Excluded under
// -race: race instrumentation allocates on its own, which would make
// AllocsPerRun numbers meaningless.

package trace

import (
	"math/rand"
	"testing"
	"time"
)

// TestAllocsFlightSoftware pins in-place trace building. A 4 h
// FlightSoftware trace has over 3,000 segments; generators append them
// straight into one trace and cut every segment's Loads from a
// per-trace slab, so the cost is the Segments slice's growth plus a few
// doubling slabs: 24–25 objects at seeds 1–5 (Go 1.24). The bound of 40
// leaves room for the slice growth policy to shift between Go releases,
// while one allocation per segment would read in the thousands.
func TestAllocsFlightSoftware(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var tr *Trace
		avg := testing.AllocsPerRun(3, func() {
			tr = FlightSoftware(rand.New(rand.NewSource(seed)), 4*time.Hour, 4)
		})
		if avg > 40 {
			t.Errorf("seed %d: FlightSoftware(4h) allocates %.0f objects for %d segments, want ≤ 40",
				seed, avg, len(tr.Segments))
		}
	}
}
