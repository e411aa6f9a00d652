//go:build !race

// Allocation-regression test for the pool itself: a Map costs a fixed
// handful of objects whatever its trial count. Excluded under -race:
// race instrumentation allocates on its own.

package sched

import "testing"

func TestAllocsSchedMap(t *testing.T) {
	noop := func(i int) (int, error) { return i, nil }
	for _, n := range []int{6, 27, 200} {
		avg := testing.AllocsPerRun(200, func() {
			if _, err := Map(n, 2, noop); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Errorf("Map(%d trials, 2 workers) allocates %.1f objects, want at most 8", n, avg)
		}
	}
}
