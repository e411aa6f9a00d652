package emr

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"radshield/internal/fault"
	"radshield/internal/mem"
)

func TestDetectCommonThresholds(t *testing.T) {
	mk := func(addr, length uint64) InputRef {
		return InputRef{Region: mem.Region{Addr: addr, Len: length}}
	}
	shared := mk(0, 32)
	datasets := []Dataset{
		{Inputs: []InputRef{mk(100, 10), shared}},
		{Inputs: []InputRef{mk(200, 10), shared}},
		{Inputs: []InputRef{mk(300, 10), shared}},
		{Inputs: []InputRef{mk(400, 10)}},
	}
	// Shared region appears in 3 of 4 datasets = 75 %.
	if got := detectCommon(datasets, 0.5); len(got) != 1 || got[0] != (regionKey{0, 32}) {
		t.Fatalf("threshold 0.5: %v, want the shared region", got)
	}
	if got := detectCommon(datasets, 0.80); len(got) != 0 {
		t.Fatalf("threshold 0.80: %v, want none (75%% < 80%%)", got)
	}
	// At exactly threshold·n datasets a region is kept.
	if got := detectCommon(datasets, 0.75); len(got) != 1 || got[0] != (regionKey{0, 32}) {
		t.Fatalf("threshold 0.75: %v, want the shared region (75%% ≥ 75%%)", got)
	}
	if got := detectCommon(datasets[:3], 1); len(got) != 1 || got[0] != (regionKey{0, 32}) {
		t.Fatalf("threshold 1: %v, want the region every dataset reads", got)
	}
	if got := detectCommon(datasets, 2.0); len(got) != 0 {
		t.Fatalf("disabled threshold: %v", got)
	}
	// Threshold 0: replicate every region, even single-use ones.
	if got := detectCommon(datasets, 0); len(got) != 5 {
		t.Fatalf("threshold 0: %d regions, want all 5", len(got))
	}
	// Duplicate refs inside ONE dataset count once.
	dup := []Dataset{
		{Inputs: []InputRef{shared, shared}},
		{Inputs: []InputRef{mk(100, 10)}},
		{Inputs: []InputRef{mk(200, 10)}},
	}
	if got := detectCommon(dup, 0.5); len(got) != 0 {
		t.Fatalf("intra-dataset duplicates counted as sharing: %v", got)
	}
}

func TestBuildJobsetsProperties(t *testing.T) {
	// Property: no two members of a jobset conflict, and every dataset is
	// placed exactly once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		regions := make([][]mem.Region, n)
		for i := range regions {
			base := uint64(rng.Intn(2000))
			length := uint64(rng.Intn(200) + 1)
			regions[i] = []mem.Region{{Addr: base, Len: length}}
		}
		jobsets, _ := buildJobsets(regions, nil)
		seen := make(map[int]bool)
		for _, set := range jobsets {
			for ai, a := range set {
				if seen[a] {
					return false // placed twice
				}
				seen[a] = true
				for _, b := range set[ai+1:] {
					if conflict(regions[a], regions[b]) {
						return false // conflicting pair co-scheduled
					}
				}
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildJobsetsGreedyFirstFit(t *testing.T) {
	// Deterministic greedy placement: the paper's "first available
	// jobset without conflicts".
	regions := [][]mem.Region{
		{{Addr: 0, Len: 10}},
		{{Addr: 5, Len: 10}},  // conflicts with 0
		{{Addr: 20, Len: 10}}, // fits with 0
		{{Addr: 25, Len: 10}}, // conflicts with 2 → joins 1
	}
	jobsets, pairs := buildJobsets(regions, nil)
	if len(jobsets) != 2 {
		t.Fatalf("jobsets = %v", jobsets)
	}
	if jobsets[0][0] != 0 || jobsets[0][1] != 2 || jobsets[1][0] != 1 || jobsets[1][1] != 3 {
		t.Fatalf("greedy placement = %v, want [[0 2] [1 3]]", jobsets)
	}
	if pairs == 0 {
		t.Fatal("no conflict pairs recorded")
	}
}

// Property: EMR output correctness is invariant to the replication
// threshold — replication changes the schedule and memory, never the
// answer.
func TestPropertyThresholdInvariantOutputs(t *testing.T) {
	f := func(seed int64, thrSeed uint8) bool {
		thresholds := []float64{2.0, 0.5, 0.01, 0.0}
		th := thresholds[int(thrSeed)%len(thresholds)]
		cfg := DefaultConfig()
		cfg.ReplicationThreshold = th
		rt, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		data := make([]byte, n*128)
		rng.Read(data)
		ref, err := rt.LoadInput("d", data)
		if err != nil {
			return false
		}
		key, err := rt.LoadInput("k", []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			return false
		}
		datasets := make([]Dataset, n)
		for i := range datasets {
			datasets[i] = Dataset{Inputs: []InputRef{mustSlice(ref, uint64(i*128), 128), key}}
		}
		res, err := rt.Run(Spec{Name: "p", Datasets: datasets, Job: sumJob, CyclesPerByte: 3})
		if err != nil {
			return false
		}
		// Compare against direct computation.
		for i := range datasets {
			want, _ := sumJob(nil, [][]byte{data[i*128 : (i+1)*128], {1, 2, 3, 4, 5, 6, 7, 8}})
			if !bytes.Equal(res.Outputs[i], want) {
				return false
			}
		}
		return res.Report.Votes.Unanimous == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFiveExecutorEMRToleratesTwoFaults(t *testing.T) {
	// EMR generalizes beyond triple redundancy: with 5 executors, two
	// independent pipeline faults in the same dataset are still outvoted.
	cfg := DefaultConfig()
	cfg.Executors = 5
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := chunkedSpec(t, rt, 4, 256, false)
	corrupted := 0
	spec.Hook = func(hp *HookPoint) {
		if hp.Phase == PhaseAfterJob && hp.Dataset == 1 && (hp.Executor == 0 || hp.Executor == 3) {
			hp.Output[0] ^= byte(0x10 << uint(hp.Executor)) // two *different* corruptions
			corrupted++
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != 2 {
		t.Fatalf("corrupted %d executors, want 2", corrupted)
	}
	want := golden(t, 4, 256, false)
	if !bytes.Equal(res.Outputs[1], want[1]) {
		t.Fatal("5-executor vote failed to mask two faults")
	}
	if res.Report.Votes.Corrected != 1 {
		t.Fatalf("votes = %+v", res.Report.Votes)
	}
}

// Property: under at most one corrupted executor per dataset, EMR's
// voted outputs always match the fault-free outputs.
func TestPropertySingleExecutorCorruptionAlwaysMasked(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		data := make([]byte, 6*128)
		rng.Read(data)
		ref, err := rt.LoadInput("d", data)
		if err != nil {
			return false
		}
		datasets := make([]Dataset, 6)
		for i := range datasets {
			datasets[i] = Dataset{Inputs: []InputRef{mustSlice(ref, uint64(i*128), 128)}}
		}
		victim := rng.Intn(3) // one executor corrupted on every dataset
		spec := Spec{
			Name: "p", Datasets: datasets, Job: sumJob, CyclesPerByte: 3,
			Hook: func(hp *HookPoint) {
				if hp.Phase == PhaseAfterJob && hp.Executor == victim {
					hp.Output[rng.Intn(len(hp.Output))] ^= 1 << uint(rng.Intn(8))
				}
			},
		}
		res, err := rt.Run(spec)
		if err != nil {
			return false
		}
		for i := range datasets {
			want, _ := sumJob(nil, [][]byte{data[i*128 : (i+1)*128]})
			if !bytes.Equal(res.Outputs[i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeChecksumInTable4(t *testing.T) {
	if got := fault.ProtectedAreaFraction(fault.SchemeChecksum, fault.Snapdragon845Areas); got != 0.25 {
		t.Fatalf("checksum protected area = %v, want 0.25 (memory only)", got)
	}
	if fault.SchemeChecksum.String() != "Checksum" {
		t.Fatal("scheme name")
	}
}

// planDatasets draws n datasets of 1–5 inputs over frontier region ref
// (at least 4 KiB). An input is one of three kinds: a repeat of an
// earlier input of the same dataset, one of a few regions the datasets
// share, or a fresh region at any offset, so fresh regions overlap each
// other and the shared ones.
func planDatasets(rng *rand.Rand, ref InputRef, n int) []Dataset {
	region := func() InputRef {
		off := uint64(rng.Intn(4 << 10))
		return mustSlice(ref, off, 1+uint64(rng.Intn(min(512, 4<<10-int(off)))))
	}
	pool := make([]InputRef, 1+rng.Intn(6))
	for i := range pool {
		pool[i] = region()
	}
	datasets := make([]Dataset, n)
	for d := range datasets {
		inputs := make([]InputRef, 1+rng.Intn(5))
		for i := range inputs {
			switch k := rng.Intn(10); {
			case k < 2 && i > 0:
				inputs[i] = inputs[rng.Intn(i)]
			case k < 6:
				inputs[i] = pool[rng.Intn(len(pool))]
			default:
				inputs[i] = region()
			}
		}
		datasets[d] = Dataset{Inputs: inputs}
	}
	return datasets
}

// FuzzPlanMatchesReference holds plan to the map-based planner it
// replaced: over the same datasets on two identically staged runtimes,
// both replicate the same regions to the same addresses, resolve every
// executor's inputs alike, and build the same conflict regions,
// jobsets and conflict-pair count, at every threshold rule (0 keeps
// all, above 1 none, otherwise shared by at least 2 and threshold·n
// datasets) and with and without a declared extra conflict.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(7), uint8(47), uint8(3))
	f.Add(int64(42), uint8(0), uint8(1))
	f.Add(int64(-3), uint8(200), uint8(4))

	f.Fuzz(func(t *testing.T, seed int64, datasets, every uint8) {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4<<10)
		rng.Read(data)
		n := 1 + int(datasets)%64
		// extra declares datasets i and j in conflict whenever i+j is a
		// multiple of mod, which every picks from 2 to 6.
		mod := 2 + int(every)%5
		extra := func(i, j int) bool { return (i+j)%mod == 0 }
		spec := Spec{Name: "plan", Job: sumJob, CyclesPerByte: 1}
		var staged []*Runtime
		for _, threshold := range []float64{0, 0.01, 0.5, 1, 2} {
			for _, ex := range []func(i, j int) bool{nil, extra} {
				staged = staged[:0]
				for range 2 {
					cfg := DefaultConfig()
					cfg.ReplicationThreshold = threshold
					rt, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := rt.LoadInput("plan", data)
					if err != nil {
						t.Fatal(err)
					}
					if spec.Datasets == nil {
						spec.Datasets = planDatasets(rng, ref, n)
					}
					staged = append(staged, rt)
				}
				spec.ExtraConflict = ex
				got, err := staged[0].plan(&spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := staged[1].referencePlan(&spec)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("threshold %v extra %v", threshold, ex != nil)
				comparePlans(t, name, &spec, got, want)
			}
		}
	})
}

// comparePlans fails t unless got, planned by plan, equals want,
// planned by referencePlan for the same spec.
func comparePlans(t *testing.T, name string, spec *Spec, got *analysis, want *referenceAnalysis) {
	t.Helper()
	if len(got.replicated) != len(want.replicated) {
		t.Fatalf("%s: %d regions replicated, want %d", name, len(got.replicated), len(want.replicated))
	}
	for k, key := range got.replicated {
		if !want.replicated[key] {
			t.Fatalf("%s: replicated %+v, which the reference keeps in place", name, key)
		}
		if k > 0 && compareKeys(got.replicated[k-1], key) >= 0 {
			t.Fatalf("%s: replicated regions out of (addr, len) order at %d: %+v then %+v", name, k, got.replicated[k-1], key)
		}
		for e := range want.replicas {
			if addr := got.replicas[e*len(got.replicated)+k]; addr != want.replicas[e][key] {
				t.Fatalf("%s: executor %d's replica of %+v at %#x, want %#x", name, e, key, addr, want.replicas[e][key])
			}
		}
	}
	if got.replicaBytes != want.replicaBytes {
		t.Fatalf("%s: %d replica bytes, want %d", name, got.replicaBytes, want.replicaBytes)
	}
	for d, ds := range spec.Datasets {
		for i, in := range ds.Inputs {
			for e := range want.replicas {
				if g, w := got.executorRegion(e, d, i, in.Region), want.executorRegion(e, in); g != w {
					t.Fatalf("%s: executor %d reads dataset %d's input %d at %+v, want %+v", name, e, d, i, g, w)
				}
			}
		}
		if !slices.Equal(got.conflictRegions[d], want.conflictRegions[d]) {
			t.Fatalf("%s: dataset %d's conflict regions %v, want %v", name, d, got.conflictRegions[d], want.conflictRegions[d])
		}
	}
	if !slices.EqualFunc(got.jobsets, want.jobsets, slices.Equal) {
		t.Fatalf("%s: jobsets %v, want %v", name, got.jobsets, want.jobsets)
	}
	if got.conflictPairs != want.conflictPairs {
		t.Fatalf("%s: %d conflict pairs, want %d", name, got.conflictPairs, want.conflictPairs)
	}
}
