package emr

import (
	"bytes"
	"errors"
	"testing"

	"radshield/internal/fault"
)

func TestChecksumSchemeCleanRun(t *testing.T) {
	want := golden(t, 8, 256, true)
	rt := newRuntime(t, fault.SchemeChecksum)
	res, err := rt.Run(chunkedSpec(t, rt, 8, 256, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(res.Outputs[i], want[i]) {
			t.Fatalf("dataset %d mismatch", i)
		}
	}
	if res.Report.ExecErrors != 0 {
		t.Fatalf("clean run reported %d errors", res.Report.ExecErrors)
	}
}

// TestChecksumStoreReadsEachRegionOnce checks that the checksum store
// reads every distinct input region from the frontier once, however
// many datasets read it: eight chunks and the key all eight share make
// nine reads for sixteen inputs.
func TestChecksumStoreReadsEachRegionOnce(t *testing.T) {
	rt := newRuntime(t, fault.SchemeChecksum)
	spec := chunkedSpec(t, rt, 8, 256, true)
	reads := func() uint64 { return rt.storage.Stats().Reads + rt.dram.Stats().Reads }
	before := reads()
	store, err := rt.checksumDatasets(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := reads() - before; got != 9 || len(store.keys) != 9 {
		t.Fatalf("the store read %d regions and keeps %d, want 9 and 9", got, len(store.keys))
	}
}

func TestChecksumSchemeAllowsSingleExecutor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = fault.SchemeChecksum
	cfg.Executors = 1
	if _, err := New(cfg); err != nil {
		t.Fatalf("checksum scheme with 1 executor rejected: %v", err)
	}
}

func TestChecksumCatchesCacheCorruption(t *testing.T) {
	// A cache upset in the consumed bytes disagrees with the stored CRC:
	// detected error, never SDC.
	rt := newRuntime(t, fault.SchemeChecksum)
	spec := chunkedSpec(t, rt, 4, 256, false)
	landed := false
	spec.Hook = cacheFlipHook(rt, 0, 2, &landed)
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !landed {
		t.Fatal("flip did not land")
	}
	if res.Outputs[2] != nil {
		t.Fatal("corrupted dataset still produced an output")
	}
	if !errors.Is(res.PerDataset[2].Err, ErrChecksumMismatch) {
		t.Fatalf("error = %v, want checksum mismatch", res.PerDataset[2].Err)
	}
	// Other datasets unaffected.
	if res.Outputs[0] == nil || res.Outputs[3] == nil {
		t.Fatal("unrelated datasets affected")
	}
}

func TestChecksumMissesPipelineFault(t *testing.T) {
	// The paper's argument against checksum guards: a pipeline fault
	// produces a wrong output from verified-correct inputs — silent.
	want := golden(t, 4, 256, false)
	rt := newRuntime(t, fault.SchemeChecksum)
	spec := chunkedSpec(t, rt, 4, 256, false)
	done := false
	spec.Hook = func(hp *HookPoint) {
		if !done && hp.Phase == PhaseAfterJob && hp.Dataset == 1 {
			done = true
			hp.Output[0] ^= 0x01
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDataset[1].Err != nil {
		t.Fatalf("pipeline fault was detected (%v) — checksum should be blind to it", res.PerDataset[1].Err)
	}
	if bytes.Equal(res.Outputs[1], want[1]) {
		t.Fatal("output unexpectedly correct")
	}
}

func TestChecksumRuntimeBetweenNoneAndEMR(t *testing.T) {
	mk := func(scheme fault.Scheme) float64 {
		rt := newRuntime(t, scheme)
		res, err := rt.Run(chunkedSpec(t, rt, 16, 1024, false))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Makespan.Seconds()
	}
	none := mk(fault.SchemeNone)
	sum := mk(fault.SchemeChecksum)
	serial := mk(fault.SchemeSerial3MR)
	if !(none < sum && sum < serial) {
		t.Fatalf("runtime ordering violated: none=%v checksum=%v serial=%v", none, sum, serial)
	}
}

func TestCacheECCRevertsEMRToParallel3MR(t *testing.T) {
	// With an ECC cache the shared-line hazard is gone; EMR executes as
	// plain parallel 3-MR (paper §3.2) and cache upsets are absorbed.
	want := golden(t, 4, 256, false)
	cfg := DefaultConfig()
	cfg.CacheECC = true
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := chunkedSpec(t, rt, 4, 256, false)
	landed := false
	spec.Hook = cacheFlipHook(rt, 0, 2, &landed)
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !landed {
		t.Fatal("flip did not land")
	}
	// Absorbed in hardware: outputs correct and votes unanimous.
	if !bytes.Equal(res.Outputs[2], want[2]) {
		t.Fatal("ECC cache failed to absorb the strike")
	}
	if res.Report.Votes.Unanimous != 4 {
		t.Fatalf("votes = %+v, want all unanimous", res.Report.Votes)
	}
	if res.Report.CacheStats.FlipsAbsorbed != 1 {
		t.Fatalf("FlipsAbsorbed = %d, want 1", res.Report.CacheStats.FlipsAbsorbed)
	}
	// No jobsets / flushes: the run reverted to plain parallelism.
	if res.Report.Jobsets != 0 || res.Report.CacheStats.LinesFlushed != 0 {
		t.Fatalf("jobsets=%d flushed=%d; expected plain parallel execution",
			res.Report.Jobsets, res.Report.CacheStats.LinesFlushed)
	}
}

func TestCacheECCFasterThanEMRFlushing(t *testing.T) {
	run := func(ecc bool) float64 {
		cfg := DefaultConfig()
		cfg.CacheECC = ecc
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(chunkedSpec(t, rt, 32, 2048, false))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Makespan.Seconds()
	}
	if withECC, without := run(true), run(false); withECC >= without {
		t.Fatalf("ECC-cache EMR (%v) not faster than flushing EMR (%v)", withECC, without)
	}
}
