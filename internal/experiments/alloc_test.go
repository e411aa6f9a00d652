//go:build !race

// Allocation-regression test for the campaigns' downlink payload
// formatting. Excluded under -race: race instrumentation allocates on
// its own.

package experiments

import (
	"math"
	"testing"
	"time"
)

func TestAllocsAppendDuration(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, d := range []time.Duration{0, 999, time.Hour + 1500*time.Millisecond, math.MinInt64} {
		if avg := testing.AllocsPerRun(100, func() { buf = appendDuration(buf[:0], d) }); avg != 0 {
			t.Errorf("appendDuration(%v) allocates %.3f objects, want 0", d, avg)
		}
	}
}
