//go:build !race

// Excluded under -race: race instrumentation allocates on its own.

package emr

import (
	"runtime"
	"testing"
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
