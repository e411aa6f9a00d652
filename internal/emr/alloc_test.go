//go:build !race

// Excluded under -race: race instrumentation allocates on its own.

package emr

import (
	"fmt"
	"runtime"
	"testing"

	"radshield/internal/fault"
)

// TestAllocsEMRNew pins construction cost: devices are backed only as
// they are written, so a default runtime with 64 MiB of DRAM and 64 MiB
// of storage allocates little more than its shared cache array.
func TestAllocsEMRNew(t *testing.T) {
	const limit = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("emr.New(DefaultConfig()) allocated %d bytes, want < %d", got, limit)
	}
}

// noAllocOut is noAllocJob's one output. No hook or caller mutates it,
// so every Run may return it.
var noAllocOut = []byte{0x5a, 0xa5, 0x5a, 0xa5}

// noAllocJob allocates nothing, so the objects a Run allocates are all
// the runtime's own.
func noAllocJob([][]byte) ([]byte, error) { return noAllocOut, nil }

// TestAllocsEMRRun pins the runtime's per-dataset bookkeeping: on a
// reused runtime and spec, a 64-dataset Run may allocate only a handful
// of objects more than a 16-dataset one under every scheme, hooked or
// not, and EMR at most one more per extra dataset for its conflict plan.
// Visits reuse their executor's scratch, and each run table has one
// backing array.
func TestAllocsEMRRun(t *testing.T) {
	const small, large = 16, 64
	for _, scheme := range []fault.Scheme{fault.SchemeEMR, fault.SchemeUnprotectedParallel, fault.SchemeSerial3MR, fault.SchemeNone, fault.SchemeChecksum} {
		for _, hooked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/hooked=%v", scheme, hooked), func(t *testing.T) {
				rt := newRuntime(t, scheme)
				spec := chunkedSpec(t, rt, large, 256, true)
				spec.Job = noAllocJob
				if hooked {
					spec.Hook = func(*HookPoint) {}
				}
				allocs := func(n int) float64 {
					s := spec
					s.Datasets = spec.Datasets[:n]
					return testing.AllocsPerRun(20, func() {
						if _, err := rt.Run(s); err != nil {
							t.Fatal(err)
						}
					})
				}
				extra := allocs(large) - allocs(small)
				t.Logf("%.2f objects per extra dataset", extra/(large-small))
				limit := 8.0
				if scheme == fault.SchemeEMR {
					limit = large - small
				}
				if extra > limit {
					t.Errorf("a %d-dataset Run allocates %.0f objects more than a %d-dataset one (%.2f per extra dataset), want at most %.0f",
						large, extra, small, extra/(large-small), limit)
				}
			})
		}
	}
}
