package emr_test

import (
	"bytes"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/telemetry"
	"radshield/internal/workloads"
)

// TestRuntimeResetEquivalence pins Reset's contract: a Reset runtime
// replays a workload byte-identically to its own fresh run — same
// outputs, same makespan, same vote accounting — and its instruments
// add the same per-run deltas to the registry as the fresh run did.
func TestRuntimeResetEquivalence(t *testing.T) {
	cfg := emr.DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry(telemetry.DefaultEventCap)
	hits := cfg.Telemetry.Counter("emr_cache_hits_total", "hits")
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *emr.Result {
		spec, err := workloads.ImageProcessing().Build(rt, 32<<10, 2026)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fresh := run()
	freshHits := hits.Value()
	rt.Reset()
	reused := run()

	if len(fresh.Outputs) != len(reused.Outputs) {
		t.Fatalf("output counts differ: %d fresh vs %d reused", len(fresh.Outputs), len(reused.Outputs))
	}
	for i := range fresh.Outputs {
		if !bytes.Equal(fresh.Outputs[i], reused.Outputs[i]) {
			t.Errorf("output %d differs between fresh and reset runs", i)
		}
	}
	if fresh.Report.Makespan != reused.Report.Makespan {
		t.Errorf("makespan differs: %v fresh vs %v reused (cache state leaked through Reset?)",
			fresh.Report.Makespan, reused.Report.Makespan)
	}
	if fresh.Report.Votes != reused.Report.Votes {
		t.Errorf("vote accounting differs: %+v fresh vs %+v reused", fresh.Report.Votes, reused.Report.Votes)
	}
	if got := hits.Value(); got != 2*freshHits {
		t.Errorf("emr_cache_hits_total = %d after fresh and reset runs, want 2×%d", got, freshHits)
	}
}
