package emr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"radshield/internal/fault"
	"radshield/internal/mem"
)

// sumJob adds all input bytes into a 4-byte big-endian checksum — a
// minimal deterministic job whose output changes if any input bit flips.
func sumJob(dst []byte, inputs [][]byte) ([]byte, error) {
	var sum uint32
	for _, in := range inputs {
		for _, b := range in {
			sum = sum*31 + uint32(b)
		}
	}
	return append(dst, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)), nil
}

// newRuntime builds a runtime with the given scheme, failing the test on
// error.
func newRuntime(t *testing.T, scheme fault.Scheme) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// chunkedSpec loads n×chunk bytes and declares one dataset per chunk,
// optionally sharing a common key region across all datasets.
// mustSlice wraps InputRef.Slice for fixtures whose offsets are known
// in-range; a failure aborts the test. It is a plain function (not
// t-based) so quick.Check closures, benchmarks, and Examples can share it.
func mustSlice(ref InputRef, off, n uint64) InputRef {
	s, err := ref.Slice(off, n)
	if err != nil {
		panic(err)
	}
	return s
}

func chunkedSpec(t *testing.T, rt *Runtime, n, chunk int, withKey bool) Spec {
	t.Helper()
	data := make([]byte, n*chunk)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	ref, err := rt.LoadInput("data", data)
	if err != nil {
		t.Fatal(err)
	}
	var keyRef InputRef
	if withKey {
		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(0xA0 + i)
		}
		keyRef, err = rt.LoadInput("key", key)
		if err != nil {
			t.Fatal(err)
		}
	}
	datasets := make([]Dataset, n)
	for i := 0; i < n; i++ {
		inputs := []InputRef{mustSlice(ref, uint64(i*chunk), uint64(chunk))}
		if withKey {
			inputs = append(inputs, keyRef)
		}
		datasets[i] = Dataset{Inputs: inputs}
	}
	return Spec{Name: "chunked", Datasets: datasets, Job: sumJob, CyclesPerByte: 10}
}

// golden computes reference outputs with an unprotected single run.
func golden(t *testing.T, n, chunk int, withKey bool) [][]byte {
	t.Helper()
	rt := newRuntime(t, fault.SchemeNone)
	res, err := rt.Run(chunkedSpec(t, rt, n, chunk, withKey))
	if err != nil {
		t.Fatal(err)
	}
	return res.Outputs
}

func TestEMRProducesCorrectOutputs(t *testing.T) {
	want := golden(t, 16, 256, false)
	rt := newRuntime(t, fault.SchemeEMR)
	res, err := rt.Run(chunkedSpec(t, rt, 16, 256, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(res.Outputs[i], want[i]) {
			t.Fatalf("dataset %d output mismatch", i)
		}
	}
	rep := res.Report
	if rep.Votes.Unanimous != 16 || rep.Votes.Corrected != 0 || rep.Votes.Failed != 0 {
		t.Fatalf("votes = %+v, want 16 unanimous", rep.Votes)
	}
	// Non-overlapping chunks: a single jobset suffices.
	if rep.Jobsets != 1 {
		t.Fatalf("jobsets = %d, want 1", rep.Jobsets)
	}
	if rep.Datasets != 16 {
		t.Fatalf("Datasets = %d", rep.Datasets)
	}
}

func TestAllSchemesAgreeOnOutputs(t *testing.T) {
	want := golden(t, 8, 128, true)
	for _, scheme := range []fault.Scheme{fault.SchemeEMR, fault.SchemeSerial3MR, fault.SchemeUnprotectedParallel} {
		rt := newRuntime(t, scheme)
		res, err := rt.Run(chunkedSpec(t, rt, 8, 128, true))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i := range want {
			if !bytes.Equal(res.Outputs[i], want[i]) {
				t.Fatalf("%v: dataset %d mismatch", scheme, i)
			}
		}
	}
}

func TestSharedKeyIsReplicated(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	res, err := rt.Run(chunkedSpec(t, rt, 8, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.ReplicatedRegions != 1 {
		t.Fatalf("ReplicatedRegions = %d, want 1 (the key)", rep.ReplicatedRegions)
	}
	if rep.ReplicaBytes != 3*32 {
		t.Fatalf("ReplicaBytes = %d, want 96", rep.ReplicaBytes)
	}
	// With the key replicated, chunks are disjoint → one jobset.
	if rep.Jobsets != 1 {
		t.Fatalf("jobsets = %d, want 1", rep.Jobsets)
	}
}

func TestDisabledReplicationSerializesSharedKey(t *testing.T) {
	// Threshold > 1 disables replication; the shared key makes every
	// pair of datasets conflict → every jobset is a singleton → EMR
	// degenerates to sequential 3-MR (paper: "0% replication amounts to
	// serial 3-MR").
	cfg := DefaultConfig()
	cfg.ReplicationThreshold = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(chunkedSpec(t, rt, 8, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobsets != 8 {
		t.Fatalf("jobsets = %d, want 8 singletons", res.Report.Jobsets)
	}
	if res.Report.ReplicatedRegions != 0 {
		t.Fatalf("replication happened despite disabled threshold")
	}
}

func TestOverlappingDatasetsConflict(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	data := make([]byte, 1024)
	ref, err := rt.LoadInput("img", data)
	if err != nil {
		t.Fatal(err)
	}
	// Sliding window with 50% overlap: adjacent datasets conflict, so a
	// proper 2-coloring (even/odd jobsets) is expected from the greedy
	// packer.
	var datasets []Dataset
	for off := uint64(0); off+256 <= 1024; off += 128 {
		datasets = append(datasets, Dataset{Inputs: []InputRef{mustSlice(ref, off, 256)}})
	}
	res, err := rt.Run(Spec{Name: "overlap", Datasets: datasets, Job: sumJob, CyclesPerByte: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobsets != 2 {
		t.Fatalf("jobsets = %d, want 2 (even/odd windows)", res.Report.Jobsets)
	}
	if res.Report.ConflictPairs == 0 {
		t.Fatal("no conflicts recorded for overlapping windows")
	}
}

func TestExtraConflictRespected(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	spec := chunkedSpec(t, rt, 6, 64, false)
	// Developer-declared conflicts: make everything conflict (e.g. the
	// DEFLATE back-reference dependency the memory regions cannot show).
	spec.ExtraConflict = func(i, j int) bool { return true }
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobsets != 6 {
		t.Fatalf("jobsets = %d, want 6 singletons", res.Report.Jobsets)
	}
}

func TestMakespanOrdering(t *testing.T) {
	// Serial 3-MR must be slowest; EMR should approach the unprotected
	// parallel bound (paper Figure 11: 7–77% over it).
	mk := func(scheme fault.Scheme) *Report {
		rt := newRuntime(t, scheme)
		res, err := rt.Run(chunkedSpec(t, rt, 32, 4096, true))
		if err != nil {
			t.Fatal(err)
		}
		return &res.Report
	}
	unprot := mk(fault.SchemeUnprotectedParallel)
	emr := mk(fault.SchemeEMR)
	serial := mk(fault.SchemeSerial3MR)
	if !(unprot.Makespan < emr.Makespan && emr.Makespan < serial.Makespan) {
		t.Fatalf("makespan ordering violated: unprot=%v emr=%v serial=%v",
			unprot.Makespan, emr.Makespan, serial.Makespan)
	}
	ratio := float64(emr.Makespan) / float64(unprot.Makespan)
	if ratio > 2.0 {
		t.Fatalf("EMR/unprotected ratio = %.2f, want < 2 (paper: 1.07–1.77)", ratio)
	}
	serialRatio := float64(serial.Makespan) / float64(unprot.Makespan)
	if serialRatio < 2.2 {
		t.Fatalf("serial/unprotected ratio = %.2f, want ≈3", serialRatio)
	}
}

func TestEnergyOrdering(t *testing.T) {
	// Paper Figure 14: EMR uses far less energy than serial 3-MR on
	// conflict-light workloads (idle power over the long serial makespan
	// dominates).
	mk := func(scheme fault.Scheme) float64 {
		rt := newRuntime(t, scheme)
		res, err := rt.Run(chunkedSpec(t, rt, 32, 4096, true))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.EnergyJ
	}
	emr := mk(fault.SchemeEMR)
	serial := mk(fault.SchemeSerial3MR)
	if emr >= serial {
		t.Fatalf("EMR energy %.2fJ not below serial 3-MR %.2fJ", emr, serial)
	}
}

func TestStorageFrontierSlowerAndChargedToDisk(t *testing.T) {
	mkCfg := func(f Frontier) Config {
		cfg := DefaultConfig()
		cfg.Frontier = f
		if f == FrontierStorage {
			cfg.DRAMECC = false
		}
		return cfg
	}
	run := func(f Frontier) *Report {
		rt, err := New(mkCfg(f))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(chunkedSpec(t, rt, 16, 2048, true))
		if err != nil {
			t.Fatal(err)
		}
		return &res.Report
	}
	dram := run(FrontierDRAM)
	disk := run(FrontierStorage)
	if disk.Makespan <= dram.Makespan {
		t.Fatalf("storage frontier (%v) not slower than DRAM (%v)", disk.Makespan, dram.Makespan)
	}
	if disk.DiskReadTime <= dram.DiskReadTime {
		t.Fatalf("storage frontier disk time (%v) not above DRAM frontier (%v)", disk.DiskReadTime, dram.DiskReadTime)
	}
}

func TestVoteMajority(t *testing.T) {
	a, b := []byte{1}, []byte{2}
	if w, u, ok := majority([][]byte{a, a, a}); !ok || !u || !bytes.Equal(w, a) {
		t.Fatal("unanimous vote failed")
	}
	if w, u, ok := majority([][]byte{a, b, a}); !ok || u || !bytes.Equal(w, a) {
		t.Fatal("2-of-3 vote failed")
	}
	if _, _, ok := majority([][]byte{{1}, {2}, {3}}); ok {
		t.Fatal("3-way disagreement produced a winner")
	}
	if w, _, ok := majority([][]byte{a, a}); !ok || !bytes.Equal(w, a) {
		t.Fatal("2-of-2 vote failed")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Executors = 0 },
		func(c *Config) { c.Executors = 1 },   // EMR needs ≥ 2 (DMR floor)
		func(c *Config) { c.DRAMECC = false }, // DRAM frontier requires ECC
		func(c *Config) { c.DRAMSize = 0 },
		func(c *Config) { c.CacheSets = 0 },
		func(c *Config) { c.ReplicationThreshold = -1 },
		func(c *Config) { c.ReplicationThreshold = math.NaN() },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	if _, err := rt.Run(Spec{Name: "x", Job: sumJob, CyclesPerByte: 1}); err == nil {
		t.Error("empty datasets accepted")
	}
	ref, _ := rt.LoadInput("d", []byte{1, 2, 3})
	ds := []Dataset{{Inputs: []InputRef{ref}}}
	if _, err := rt.Run(Spec{Name: "x", Datasets: ds, CyclesPerByte: 1}); err == nil {
		t.Error("nil job accepted")
	}
	if _, err := rt.Run(Spec{Name: "x", Datasets: ds, Job: sumJob}); err == nil {
		t.Error("zero CyclesPerByte accepted")
	}
}

func TestLoadInputValidation(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	if _, err := rt.LoadInput("empty", nil); err == nil {
		t.Error("empty input accepted")
	}
	// Exhaust frontier memory.
	cfg := DefaultConfig()
	cfg.DRAMSize = 4096
	small, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.LoadInput("big", make([]byte, 1<<20)); err == nil {
		t.Error("oversized input accepted")
	}
}

func TestSliceValidation(t *testing.T) {
	ref := InputRef{Name: "x", Region: mem.Region{Addr: 0, Len: 100}}
	got, err := ref.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Region.Addr != 10 || got.Region.Len != 20 {
		t.Fatalf("Slice = %+v", got.Region)
	}
	// Out-of-range and overflowing windows are rejected with errors, not
	// panics: flight software computes offsets from (possibly upset) data
	// and must be able to refuse them gracefully.
	if _, err := ref.Slice(90, 20); err == nil {
		t.Error("Slice(90, 20) past the region end was accepted")
	}
	if _, err := ref.Slice(^uint64(0)-5, 10); err == nil {
		t.Error("overflowing Slice window was accepted")
	}
}

func TestJobErrorDetected(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	ref, _ := rt.LoadInput("d", make([]byte, 64))
	boom := errors.New("boom")
	calls := 0
	spec := Spec{
		Name:     "failing",
		Datasets: []Dataset{{Inputs: []InputRef{ref}}},
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			calls++
			if calls == 1 {
				return nil, boom // first executor visit crashes
			}
			return sumJob(dst, inputs)
		},
		CyclesPerByte: 1,
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One executor failed; the other two agree → corrected.
	if res.Report.ExecErrors != 1 {
		t.Fatalf("ExecErrors = %d, want 1", res.Report.ExecErrors)
	}
	if res.Outputs[0] == nil {
		t.Fatal("majority output lost despite 2 healthy executors")
	}
	if res.Report.Votes.Corrected != 1 {
		t.Fatalf("votes = %+v, want 1 corrected", res.Report.Votes)
	}
}

func TestFrontierStrings(t *testing.T) {
	if FrontierDRAM.String() != "dram" || FrontierStorage.String() != "storage" || Frontier(9).String() != "unknown" {
		t.Fatal("Frontier strings wrong")
	}
}

func TestReportString(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	res, err := rt.Run(chunkedSpec(t, rt, 4, 64, false))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	if s == "" || len(s) < 50 {
		t.Fatalf("Report.String too short: %q", s)
	}
}

// TestSpecThresholdOverride pins the one way to set a run's
// replication threshold, the runtime's config: a spec whose shared key
// the default threshold (0.01) replicates gets no replica on a runtime
// configured above 1.
func TestSpecThresholdOverride(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	res, err := rt.Run(chunkedSpec(t, rt, 8, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ReplicatedRegions == 0 {
		t.Fatal("default threshold replicated nothing")
	}
	cfg := DefaultConfig()
	cfg.Scheme = fault.SchemeEMR
	cfg.ReplicationThreshold = 2 // disable
	if rt, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if res, err = rt.Run(chunkedSpec(t, rt, 8, 128, true)); err != nil {
		t.Fatal(err)
	}
	if res.Report.ReplicatedRegions != 0 {
		t.Fatal("config threshold ignored")
	}
}

func TestPeakMemoryAccounting(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	res, err := rt.Run(chunkedSpec(t, rt, 8, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	wantInput := uint64(8*128 + 32)
	if rep.InputBytes != wantInput {
		t.Fatalf("InputBytes = %d, want %d", rep.InputBytes, wantInput)
	}
	if rep.PeakMemoryBytes < rep.InputBytes+rep.ReplicaBytes {
		t.Fatalf("PeakMemoryBytes = %d too small", rep.PeakMemoryBytes)
	}
}

func TestHookForcesSequential(t *testing.T) {
	// Hooks see every round's visits in strict (t, e) order, so
	// injection campaigns are exactly reproducible.
	rt := newRuntime(t, fault.SchemeEMR)
	spec := chunkedSpec(t, rt, 6, 128, false)
	lastExec := -1
	ordered := true
	spec.Hook = func(hp *HookPoint) {
		if hp.Phase != PhaseBeforeRead {
			return
		}
		next := (lastExec + 1) % 3
		if hp.Executor != next {
			ordered = false
		}
		lastExec = hp.Executor
	}
	if _, err := rt.Run(spec); err != nil {
		t.Fatal(err)
	}
	if !ordered {
		t.Fatal("hooked run did not visit executors in sequential order")
	}
}

func ExampleRuntime_Run() {
	cfg := DefaultConfig()
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	ref, err := rt.LoadInput("telemetry", []byte("four byte chunks!!!!"))
	if err != nil {
		panic(err)
	}
	spec := Spec{
		Name: "checksum",
		Datasets: []Dataset{
			{Inputs: []InputRef{mustSlice(ref, 0, 10)}},
			{Inputs: []InputRef{mustSlice(ref, 10, 10)}},
		},
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			var sum byte
			for _, b := range inputs[0] {
				sum += b
			}
			return append(dst, sum), nil
		},
		CyclesPerByte: 8,
	}
	res, err := rt.Run(spec)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Outputs), res.Report.Votes.Unanimous)
	// Output: 2 2
}

func BenchmarkEMRRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 64*4096)
		ref, err := rt.LoadInput("d", data)
		if err != nil {
			b.Fatal(err)
		}
		datasets := make([]Dataset, 64)
		for j := range datasets {
			datasets[j] = Dataset{Inputs: []InputRef{mustSlice(ref, uint64(j*4096), 4096)}}
		}
		if _, err := rt.Run(Spec{Name: "bench", Datasets: datasets, Job: sumJob, CyclesPerByte: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
