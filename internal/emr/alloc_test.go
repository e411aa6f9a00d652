//go:build !race

// Excluded under -race: race instrumentation allocates on its own.

package emr_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/workloads"
)

// TestAllocsEMRNew pins construction cost: devices are backed only as
// they are written, so a default runtime with 64 MiB of DRAM and 64 MiB
// of storage allocates little more than its shared cache array.
func TestAllocsEMRNew(t *testing.T) {
	const limit = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := emr.New(emr.DefaultConfig()); err != nil {
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

// noAllocJob allocates nothing and ignores dst, so the objects a Run
// allocates are all the runtime's own.
func noAllocJob([]byte, [][]byte) ([]byte, error) { return noAllocOut, nil }

// mallocs counts the objects f allocates, on one P as
// testing.AllocsPerRun counts them.
func mallocs(f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// freshRunLimit is, per scheme, the most objects a fresh runtime's
// first Run allocated beyond its second Run of the same spec, over the
// specs of TestAllocsEMRRun. The three arrays of the executors' visit
// scratch are three of them; the rest is the output buffers and device
// backing a first Run grows differently from a second. Executors that
// each grew their own headers and buffers on a fresh runtime would read
// 25–37 objects under the three-executor schemes and 7–13 under the
// single-pass ones.
var freshRunLimit = map[fault.Scheme]int{
	fault.SchemeEMR:                 6,
	fault.SchemeUnprotectedParallel: 5,
	fault.SchemeSerial3MR:           5,
	fault.SchemeNone:                5,
	fault.SchemeChecksum:            5,
}

// freshRunExtra returns how many objects a fresh runtime's first Run of
// the spec build makes allocates beyond its second Run, the fewest over
// three fresh runtimes: one count now and then reads one higher (with no
// map left in a Run, one runtime's Checksum no-op count still read 3
// instead of 2 in 1 of 50 -count runs).
func freshRunExtra(t *testing.T, cfg emr.Config, build func(*testing.T, *emr.Runtime) (emr.Spec, error)) int {
	fewest := math.MaxInt
	for range 3 {
		rt, err := emr.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := build(t, rt)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]int
		for i := range runs {
			runs[i] = mallocs(func() {
				if _, err := rt.Run(spec); err != nil {
					t.Fatal(err)
				}
			})
		}
		fewest = min(fewest, runs[0]-runs[1])
	}
	return fewest
}

// TestAllocsEMRRun pins the runtime's per-dataset bookkeeping: on a
// reused runtime and spec, a 64-dataset Run may allocate only a handful
// of objects more than a 16-dataset one under every scheme, hooked or
// not, EMR's plan included, even when every dataset is a jobset of its
// own. Visits reuse their executor's scratch, each run table and each
// planning table has one backing array, and the image-processing and
// dnn jobs append their outputs to their executor's buffer, which a Run
// sizes from its first output. Its
// fresh-runtime leg pins what a fresh runtime's first Run allocates
// beyond a warm Run (freshRunLimit): the runtime sizes every
// executor's visit scratch once, from the spec.
func TestAllocsEMRRun(t *testing.T) {
	const small, large = 16, 64
	const datasetLimit = 8 // objects, over all 48 extra datasets
	// The no-op job's subtests are named by scheme alone; the workloads'
	// take their name as a prefix.
	specs := []struct {
		name  string
		runs  int // image-processing scans 64 strips three times a Run
		build func(*testing.T, *emr.Runtime) (emr.Spec, error)
	}{
		{"", 20, func(t *testing.T, rt *emr.Runtime) (emr.Spec, error) {
			spec := emr.ChunkedSpec(t, rt, large, 256, true)
			spec.Job = noAllocJob
			return spec, nil
		}},
		// Every pair of datasets conflicts, so EMR runs one jobset, and
		// one round, per dataset.
		{"conflicting", 20, func(t *testing.T, rt *emr.Runtime) (emr.Spec, error) {
			spec := emr.ChunkedSpec(t, rt, large, 256, true)
			spec.Job = noAllocJob
			spec.ExtraConflict = func(int, int) bool { return true }
			return spec, nil
		}},
		// 1,040 map rows make 64 strips.
		{"image-processing", 3, func(_ *testing.T, rt *emr.Runtime) (emr.Spec, error) {
			return workloads.ImageProcessing().Build(rt, 1040*256, 1)
		}},
		{"dnn", 20, func(_ *testing.T, rt *emr.Runtime) (emr.Spec, error) {
			return workloads.NeuralNetwork().Build(rt, large*256, 1)
		}},
	}
	for _, s := range specs {
		for _, scheme := range []fault.Scheme{fault.SchemeEMR, fault.SchemeUnprotectedParallel, fault.SchemeSerial3MR, fault.SchemeNone, fault.SchemeChecksum} {
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("%v/hooked=%v", scheme, hooked)
				if s.name != "" {
					name = s.name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					cfg := emr.DefaultConfig()
					cfg.Scheme = scheme
					rt, err := emr.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					spec, err := s.build(t, rt)
					if err != nil {
						t.Fatal(err)
					}
					if len(spec.Datasets) != large {
						t.Fatalf("the spec has %d datasets, want %d", len(spec.Datasets), large)
					}
					if !hooked {
						extra := freshRunExtra(t, cfg, s.build)
						t.Logf("a fresh runtime's first Run allocates %d objects more than its second", extra)
						if limit := freshRunLimit[scheme]; extra > limit {
							t.Errorf("a fresh runtime's first Run allocates %d objects more than its second, want at most %d", extra, limit)
						}
					}
					if hooked {
						spec.Hook = func(*emr.HookPoint) {}
					}
					allocs := func(n int) float64 {
						sub := spec
						sub.Datasets = spec.Datasets[:n]
						return testing.AllocsPerRun(s.runs, func() {
							if _, err := rt.Run(sub); err != nil {
								t.Fatal(err)
							}
						})
					}
					extra := allocs(large) - allocs(small)
					t.Logf("%.2f objects per extra dataset", extra/(large-small))
					if extra > datasetLimit {
						t.Errorf("a %d-dataset Run allocates %.0f objects more than a %d-dataset one (%.2f per extra dataset), want at most %d",
							large, extra, small, extra/(large-small), datasetLimit)
					}
				})
			}
		}
	}
}
