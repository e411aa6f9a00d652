package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
)

func runWorkload(t *testing.T, b Builder, scheme fault.Scheme, size int) (*emr.Runtime, *emr.Result) {
	t.Helper()
	cfg := emr.DefaultConfig()
	cfg.Scheme = scheme
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := b.Build(rt, size, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rt, res
}

func TestAllReturnsFiveTable5Workloads(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d workloads, want 5", len(all))
	}
	want := []string{"encryption", "compression", "intrusion-detection", "image-processing", "dnn"}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("workload %d = %q, want %q", i, b.Name, want[i])
		}
		rt, err := emr.New(emr.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		spec, err := b.Build(rt, 32<<10, 42)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != b.Name || spec.CyclesPerByte <= 0 {
			t.Errorf("%s builds spec %q at %v cycles per byte, want its own name and a positive cost", b.Name, spec.Name, spec.CyclesPerByte)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("encryption"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestEveryWorkloadRunsCleanUnderEMR(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, res := runWorkload(t, b, fault.SchemeEMR, 64<<10)
			rep := res.Report
			if rep.Votes.Failed != 0 || rep.ExecErrors != 0 {
				t.Fatalf("votes = %+v errors = %d", rep.Votes, rep.ExecErrors)
			}
			if rep.Votes.Unanimous != rep.Datasets {
				t.Fatalf("unanimous = %d of %d datasets", rep.Votes.Unanimous, rep.Datasets)
			}
			for i, out := range res.Outputs {
				if out == nil {
					t.Fatalf("dataset %d has no output", i)
				}
			}
		})
	}
}

func TestWorkloadOutputsMatchAcrossSchemes(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, ref := runWorkload(t, b, fault.SchemeNone, 32<<10)
			for _, scheme := range []fault.Scheme{fault.SchemeEMR, fault.SchemeSerial3MR, fault.SchemeUnprotectedParallel} {
				_, res := runWorkload(t, b, scheme, 32<<10)
				if len(res.Outputs) != len(ref.Outputs) {
					t.Fatalf("%v: %d outputs vs %d", scheme, len(res.Outputs), len(ref.Outputs))
				}
				for i := range ref.Outputs {
					if !bytes.Equal(res.Outputs[i], ref.Outputs[i]) {
						t.Fatalf("%v: dataset %d differs", scheme, i)
					}
				}
			}
		})
	}
}

func TestReplicationStrategiesMatchTable5(t *testing.T) {
	// Paper Table 5: encryption/ids/imageproc/dnn replicate their shared
	// block; compression replicates nothing.
	expect := map[string]bool{
		"encryption":          true,
		"compression":         false,
		"intrusion-detection": true,
		"image-processing":    true,
		"dnn":                 true,
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, res := runWorkload(t, b, fault.SchemeEMR, 64<<10)
			replicated := res.Report.ReplicatedRegions > 0
			if replicated != expect[b.Name] {
				t.Fatalf("replicated = %v (regions=%d), want %v",
					replicated, res.Report.ReplicatedRegions, expect[b.Name])
			}
		})
	}
}

func TestAESRoundTrip(t *testing.T) {
	rt, res := runWorkload(t, Encryption(), fault.SchemeEMR, 16<<10)
	_ = rt
	key := synthetic(aesKeySize, 43) // seed+1 of Build's seed 42
	plain := synthetic(len(res.Outputs)*aesChunk, 42)
	for i, ct := range res.Outputs {
		pt, err := AESDecryptECB(ct, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, plain[i*aesChunk:(i+1)*aesChunk]) {
			t.Fatalf("chunk %d did not round-trip", i)
		}
	}
}

func TestAESJobValidation(t *testing.T) {
	if _, err := aesJob(nil, [][]byte{{1}}); err == nil {
		t.Error("single input accepted")
	}
	if _, err := aesJob(nil, [][]byte{make([]byte, 15), make([]byte, 32)}); err == nil {
		t.Error("non-block chunk accepted")
	}
	if _, err := aesJob(nil, [][]byte{make([]byte, 16), make([]byte, 7)}); err == nil {
		t.Error("bad key size accepted")
	}
}

func TestDeflateRoundTripAndChaining(t *testing.T) {
	cfg := emr.DefaultConfig()
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Compression().Build(rt, 64<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Chained dictionaries make adjacent datasets conflict: more than
	// one jobset, no replication.
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobsets < 2 {
		t.Fatalf("jobsets = %d, want ≥ 2 from dictionary chaining", res.Report.Jobsets)
	}
	// Outputs decompress back to the original blocks.
	if len(spec.Datasets) < 2 {
		t.Fatal("need at least 2 blocks")
	}
	// Block 0 has no dictionary.
	out0, err := InflateBlock(res.Outputs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out0) != deflateBlock {
		t.Fatalf("block 0 inflated to %d bytes", len(out0))
	}
	// Compression actually compresses (structured input).
	if len(res.Outputs[0]) >= deflateBlock {
		t.Fatalf("block 0 did not compress: %d bytes", len(res.Outputs[0]))
	}
}

func TestIDSFindsPlantedPatterns(t *testing.T) {
	_, res := runWorkload(t, IntrusionDetection(), fault.SchemeEMR, 64<<10)
	hits := 0
	for _, out := range res.Outputs {
		if binary.BigEndian.Uint32(out) > 0 {
			hits++
		}
	}
	// Build plants a match in every 7th packet.
	wantMin := len(res.Outputs) / 7
	if hits < wantMin {
		t.Fatalf("packets with matches = %d, want ≥ %d", hits, wantMin)
	}
	if hits == len(res.Outputs) {
		t.Fatal("every packet matched; synthetic noise should not match")
	}
}

func TestImageProcessingFindsPlantedTemplate(t *testing.T) {
	// The map is 256 bytes wide and at least 32 rows tall. The template
	// sits at the stride-aligned middle row, or at row 0 on maps under
	// 48 rows (12,288 B), where the middle would overrun the map.
	for _, tc := range []struct {
		size int
		y    uint64
	}{
		{0, 0}, {1, 0}, {8192, 0}, {12287, 0}, {12288, 16}, {64 << 10, 128},
	} {
		t.Run(fmt.Sprintf("size=%d", tc.size), func(t *testing.T) {
			_, res := runWorkload(t, ImageProcessing(), fault.SchemeEMR, tc.size)
			sad, y, x, err := BestMatch(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if sad != 0 || y != tc.y || x != 96 {
				t.Fatalf("best match SAD %d at (y %d, x %d), want SAD 0 at (%d, 96)", sad, y, x, tc.y)
			}
		})
	}
}

func TestImageProcessingOverlapsConflict(t *testing.T) {
	_, res := runWorkload(t, ImageProcessing(), fault.SchemeEMR, 64<<10)
	// Stride 16 with 32-pixel template: adjacent strips overlap → at
	// least 2 jobsets, like the paper's Figure 6 red blocks.
	if res.Report.Jobsets < 2 {
		t.Fatalf("jobsets = %d, want ≥ 2", res.Report.Jobsets)
	}
	if res.Report.ReplicatedRegions < 1 {
		t.Fatal("match image not replicated")
	}
}

func TestDNNDeterministicClasses(t *testing.T) {
	_, a := runWorkload(t, NeuralNetwork(), fault.SchemeEMR, 16<<10)
	_, b := runWorkload(t, NeuralNetwork(), fault.SchemeSerial3MR, 16<<10)
	for i := range a.Outputs {
		ca, err := DecodeClass(a.Outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := DecodeClass(b.Outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Fatalf("sample %d: class %d vs %d", i, ca, cb)
		}
		if ca < 0 || ca >= dnnOut {
			t.Fatalf("class %d out of range", ca)
		}
	}
}

func TestDecodeHelpersValidate(t *testing.T) {
	if _, _, _, err := DecodeMatch([]byte{1, 2}); err == nil {
		t.Error("short match output accepted")
	}
	if _, err := DecodeClass(nil); err == nil {
		t.Error("nil class output accepted")
	}
	if _, _, _, err := BestMatch(nil); err == nil {
		t.Error("BestMatch with no outputs succeeded")
	}
}
