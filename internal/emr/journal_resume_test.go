package emr_test

import (
	"strings"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/workloads"
)

// A journal written by a larger job must be refused, not served: resuming
// a 2-dataset spec from a 7-dataset run's checkpoints used to index past
// the spec and panic.
func TestRunJournaledRejectsForeignDatasetIndex(t *testing.T) {
	rt, err := emr.New(emr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ImageProcessing().Build(rt, 32<<10, 2026)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Datasets) != 7 {
		t.Fatalf("image-processing spec has %d datasets, want 7", len(spec.Datasets))
	}
	j, err := rt.NewJournal(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunJournaled(spec, j); err != nil {
		t.Fatal(err)
	}

	short := spec
	short.Datasets = spec.Datasets[:2]
	res, err := rt.RunJournaled(short, j)
	if err == nil {
		t.Fatalf("resumed a 2-dataset spec from a 7-dataset journal: %d outputs", len(res.Outputs))
	}
	if !strings.Contains(err.Error(), "dataset 6") {
		t.Fatalf("error %q does not name the highest foreign index, 6", err)
	}
	if _, err := rt.RunJournaled(spec, j); err != nil {
		t.Fatalf("the full spec no longer resumes: %v", err)
	}
}
