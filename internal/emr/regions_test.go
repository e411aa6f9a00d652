package emr

import (
	"bytes"
	"math/rand"
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
	if got := detectCommon(datasets, 0.5); len(got) != 1 || !got[regionKey{0, 32}] {
		t.Fatalf("threshold 0.5: %v, want the shared region", got)
	}
	if got := detectCommon(datasets, 0.80); len(got) != 0 {
		t.Fatalf("threshold 0.80: %v, want none (75%% < 80%%)", got)
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
