package workloads

import (
	"bytes"
	"math"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
)

func TestNCCFindsPlantedTemplate(t *testing.T) {
	_, res := runWorkload(t, ImageProcessingNCC(), fault.SchemeEMR, 64<<10)
	score, y, x, err := BestNCC(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.999 {
		t.Fatalf("best NCC = %v, want ≈1 at the planted template", score)
	}
	if x != 96 || y%16 != 0 {
		t.Fatalf("best at (x=%d, y=%d), want x=96 on a stride row", x, y)
	}
}

func TestNCCIlluminationInvariance(t *testing.T) {
	// The reason flight software pays for NCC: a brightness/contrast
	// shift of the whole map must not move the fix. Build a custom map
	// with a scaled+offset copy of the template planted.
	cfg := emr.DefaultConfig()
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ImageProcessingNCC().Build(rt, 64<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, y0, x0, err := BestNCC(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}

	// Second runtime: same scene but globally darkened by half. SAD's
	// best position would change (every pixel differs); NCC's must not.
	rt2, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := ImageProcessingNCC().Build(rt2, 64<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Darken the strips by patching the staged frontier bytes through a
	// fresh build: emulate by scaling the template instead — NCC is
	// symmetric, so a contrast-scaled template must still match.
	res2, err := rt2.Run(emr.Spec{
		Name:          spec2.Name,
		Datasets:      spec2.Datasets,
		CyclesPerByte: spec2.CyclesPerByte,
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			scaled := make([]byte, len(inputs[2]))
			for i, p := range inputs[2] {
				scaled[i] = p/2 + 40 // contrast ×0.5, brightness +40
			}
			return nccJob(dst, [][]byte{inputs[0], inputs[1], scaled})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, y1, x1, err := BestNCC(res2.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if x0 != x1 || y0 != y1 {
		t.Fatalf("illumination shift moved the fix: (%d,%d) → (%d,%d)", x0, y0, x1, y1)
	}
}

func TestNCCDeterministicAcrossSchemes(t *testing.T) {
	// Float outputs must be bit-identical across executors and schemes,
	// or EMR voting would see phantom disagreements.
	_, a := runWorkload(t, ImageProcessingNCC(), fault.SchemeEMR, 32<<10)
	_, b := runWorkload(t, ImageProcessingNCC(), fault.SchemeSerial3MR, 32<<10)
	if a.Report.Votes.Unanimous != a.Report.Datasets {
		t.Fatalf("EMR votes not unanimous: %+v", a.Report.Votes)
	}
	for i := range a.Outputs {
		if !bytes.Equal(a.Outputs[i], b.Outputs[i]) {
			t.Fatalf("dataset %d differs across schemes", i)
		}
	}
}

func TestNCCJobValidation(t *testing.T) {
	if _, err := nccJob(nil, [][]byte{{1}}); err == nil {
		t.Error("wrong arity accepted")
	}
	flat := make([]byte, imgTemplate*imgTemplate) // zero variance template
	strip := make([]byte, 256*imgTemplate)
	params := make([]byte, imgParamsLen)
	for i := 0; i < 8; i++ {
		params[i] = 0
	}
	params[7] = 0
	// width=256
	params[6], params[7] = 1, 0
	if _, err := nccJob(nil, [][]byte{strip, params, flat}); err == nil {
		t.Error("flat template accepted")
	}
}

func TestDecodeNCCValidation(t *testing.T) {
	if _, _, _, err := DecodeNCC([]byte{1}); err == nil {
		t.Error("short output accepted")
	}
	if _, _, _, err := BestNCC([][]byte{nil}); err == nil {
		t.Error("no outputs accepted")
	}
	out := appendMatch(nil, uint64(int64((0.5+1)*1e9)), 16, 96)
	s, y, x, err := DecodeNCC(out)
	if err != nil || math.Abs(s-0.5) > 1e-6 || y != 16 || x != 96 {
		t.Fatalf("decode = %v,%v,%v,%v", s, y, x, err)
	}
}
