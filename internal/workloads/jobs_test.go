package workloads

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"radshield/internal/emr"
)

// Error-path tests for the job functions: corrupted metadata must fail
// loudly (a detected error for the EMR vote), never panic or mis-answer.

func TestImageJobValidation(t *testing.T) {
	goodParams := make([]byte, imgParamsLen)
	binary.BigEndian.PutUint64(goodParams, 256)
	binary.BigEndian.PutUint64(goodParams[8:], 0)
	strip := make([]byte, 256*imgTemplate)
	tmpl := make([]byte, imgTemplate*imgTemplate)

	cases := []struct {
		name   string
		inputs [][]byte
	}{
		{"wrong arity", [][]byte{strip, goodParams}},
		{"bad params length", [][]byte{strip, make([]byte, 3), tmpl}},
		{"zero width", [][]byte{strip, make([]byte, imgParamsLen), tmpl}},
		{"ragged strip", [][]byte{strip[:100], goodParams, tmpl}},
		{"bad template", [][]byte{strip, goodParams, tmpl[:10]}},
		{"short strip", [][]byte{strip[:256*4], goodParams, tmpl}},
	}
	for _, c := range cases {
		if _, err := imageJob(nil, c.inputs); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := imageJob(nil, [][]byte{strip, goodParams, tmpl}); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
}

func TestDNNJobValidation(t *testing.T) {
	sample := make([]byte, dnnSampleLen)
	weights := make([]byte, dnnWeightsLen)
	if _, err := dnnJob(nil, [][]byte{sample}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := dnnJob(nil, [][]byte{sample[:8], weights}); err == nil {
		t.Error("short sample accepted")
	}
	if _, err := dnnJob(nil, [][]byte{sample, weights[:8]}); err == nil {
		t.Error("short weights accepted")
	}
	out, err := dnnJob(nil, [][]byte{sample, weights})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4+4*dnnOut {
		t.Fatalf("output length %d", len(out))
	}
}

func TestIDSJobValidation(t *testing.T) {
	if _, err := idsJob(nil, [][]byte{{1}}); err == nil {
		t.Error("wrong arity accepted")
	}
	// A corrupted pattern that no longer compiles is a *detected* error —
	// the property that makes the replicated pattern vote-safe.
	if _, err := idsJob(nil, [][]byte{[]byte("payload"), []byte("(unclosed")}); err == nil {
		t.Error("corrupt pattern accepted")
	} else if !strings.Contains(err.Error(), "corrupt pattern") {
		t.Errorf("unexpected error: %v", err)
	}
	out, err := idsJob(nil, [][]byte{[]byte("CMD=REBOOT now"), []byte(idsPattern)})
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(out) != 1 {
		t.Fatalf("match count = %d, want 1", binary.BigEndian.Uint32(out))
	}
}

func TestDeflateJobValidation(t *testing.T) {
	if _, err := deflateJob(nil, [][]byte{{1}, {2}, {3}}); err == nil {
		t.Error("3-input deflate accepted")
	}
	out, err := deflateJob(nil, [][]byte{[]byte(strings.Repeat("radshield ", 100))})
	if err != nil {
		t.Fatal(err)
	}
	back, err := InflateBlock(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != strings.Repeat("radshield ", 100) {
		t.Fatal("round trip failed")
	}
}

func TestDeflateDictionaryActuallyHelps(t *testing.T) {
	// Compressing with the preceding window as dictionary must beat
	// compressing cold when the data repeats across the boundary.
	block := []byte(strings.Repeat("telemetry-frame-alpha-bravo ", 80))
	dict := block[:deflateDict]
	withDict, err := deflateJob(nil, [][]byte{dict, block})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := deflateJob(nil, [][]byte{block})
	if err != nil {
		t.Fatal(err)
	}
	if len(withDict) >= len(cold) {
		t.Fatalf("dictionary did not help: %d vs %d bytes", len(withDict), len(cold))
	}
	// And the dictionary round-trips correctly.
	back, err := InflateBlock(withDict, dict)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(block) {
		t.Fatal("dictionary round trip failed")
	}
}

func TestAESJobDeterministicPerKey(t *testing.T) {
	chunk := make([]byte, 64)
	k1 := make([]byte, 32)
	k2 := make([]byte, 32)
	k2[0] = 1
	a, err := aesJob(nil, [][]byte{chunk, k1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := aesJob(nil, [][]byte{chunk, k1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := aesJob(nil, [][]byte{chunk, k2})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("AES not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("different keys produced equal ciphertext")
	}
}

// TestJobsDoNotRetainInputs checks every job against the EMR input
// contract: inputs are valid only until the job returns (the runtime
// refills the same buffers for the executor's next visit), so an output
// must be the job's own bytes, never a view of its inputs.
func TestJobsDoNotRetainInputs(t *testing.T) {
	for _, b := range append(All(), ImageProcessingNCC()) {
		t.Run(b.Name, func(t *testing.T) {
			rt, err := emr.New(emr.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			spec, err := b.Build(rt, 32<<10, 7)
			if err != nil {
				t.Fatal(err)
			}
			for d, ds := range spec.Datasets {
				// inputs returns fresh copies of the dataset's bytes.
				inputs := func() [][]byte {
					bufs := make([][]byte, len(ds.Inputs))
					for i, in := range ds.Inputs {
						bufs[i] = make([]byte, in.Region.Len)
						if err := rt.Cache().Read(in.Region.Addr, bufs[i]); err != nil {
							t.Fatal(err)
						}
					}
					return bufs
				}
				in := inputs()
				out, err := spec.Job(nil, in)
				if err != nil {
					t.Fatalf("dataset %d: %v", d, err)
				}
				kept := bytes.Clone(out)
				for _, buf := range in {
					for i := range buf {
						buf[i] ^= 0xff
					}
				}
				if !bytes.Equal(out, kept) {
					t.Fatalf("dataset %d: overwriting the inputs changed the output", d)
				}
				again, err := spec.Job(nil, inputs())
				if err != nil {
					t.Fatalf("dataset %d: %v", d, err)
				}
				if !bytes.Equal(out, again) {
					t.Fatalf("dataset %d: output %x, but a second call on fresh copies gave %x", d, out, again)
				}
			}
		})
	}
}
