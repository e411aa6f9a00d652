package emr

import (
	"bytes"
	"reflect"
	"testing"

	"radshield/internal/fault"
)

// allSchemes is every scheme Run dispatches on.
var allSchemes = []fault.Scheme{fault.SchemeEMR, fault.SchemeUnprotectedParallel, fault.SchemeSerial3MR, fault.SchemeNone, fault.SchemeChecksum}

// TestJobIgnoringDstMatchesAppending holds the runtime to the append
// contract's escape hatch: a job that ignores dst and returns bytes it
// owns gives the same Result as its appending form under every scheme,
// with an executor's output corrupted after the job and outvoted.
func TestJobIgnoringDstMatchesAppending(t *testing.T) {
	owned := func(_ []byte, inputs [][]byte) ([]byte, error) { return sumJob(nil, inputs) }
	for _, scheme := range allSchemes {
		run := func(job JobFunc) *Result {
			rt := newRuntime(t, scheme)
			spec := chunkedSpec(t, rt, 24, 256, true)
			spec.Job = job
			spec.Hook = func(hp *HookPoint) {
				if hp.Phase == PhaseAfterJob && hp.Executor == 1 && hp.Dataset == 3 {
					hp.Output[0] ^= 0x10
				}
			}
			res, err := rt.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if appended, kept := run(sumJob), run(owned); !reflect.DeepEqual(appended, kept) {
			t.Errorf("%v: a job returning bytes it owns gave\n%+v\nbut its appending form\n%+v", scheme, kept, appended)
		}
	}
}

// TestHookAppendStaysInItsOutput checks that recorded outputs are
// capacity-limited: a PhaseAfterJob hook that appends to one dataset's
// output and flips a bit in it changes that output alone, whatever the
// executor computes next into the same buffer.
func TestHookAppendStaysInItsOutput(t *testing.T) {
	const n, target = 12, 5
	golden := golden(t, n, 256, true)
	for _, scheme := range allSchemes {
		rt := newRuntime(t, scheme)
		spec := chunkedSpec(t, rt, n, 256, true)
		spec.Hook = func(hp *HookPoint) {
			if hp.Phase == PhaseAfterJob && hp.Dataset == target {
				hp.Output = append(hp.Output, 0xff)
				hp.Output[0] ^= 1
			}
		}
		res, err := rt.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for d, want := range golden {
			if d == target {
				want = append([]byte{want[0] ^ 1}, want[1:]...)
				want = append(want, 0xff)
			}
			if !bytes.Equal(res.Outputs[d], want) {
				t.Errorf("%v: dataset %d output %x, want %x", scheme, d, res.Outputs[d], want)
			}
		}
	}
}

// TestResultOutlivesLaterRuns checks how long a Result's outputs stay
// valid: a second Run on the same runtime over different input bytes,
// a Reset and a Run after it leave the first Result's outputs as they
// were.
func TestResultOutlivesLaterRuns(t *testing.T) {
	const n, chunk = 12, 256
	for _, scheme := range allSchemes {
		rt := newRuntime(t, scheme)
		spec := chunkedSpec(t, rt, n, chunk, true)
		first, err := rt.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		outputs := make([][]byte, n)
		for d, out := range first.Outputs {
			outputs[d] = bytes.Clone(out)
		}
		other, err := rt.LoadInput("other", bytes.Repeat([]byte{0x3c}, n*chunk))
		if err != nil {
			t.Fatal(err)
		}
		for d := range spec.Datasets {
			spec.Datasets[d].Inputs[0] = mustSlice(other, uint64(d*chunk), chunk)
		}
		second, err := rt.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(second.Outputs[0], outputs[0]) {
			t.Fatalf("%v: the second Run's input bytes gave the first Run's output", scheme)
		}
		rt.Reset()
		if _, err := rt.Run(chunkedSpec(t, rt, n, chunk, true)); err != nil {
			t.Fatal(err)
		}
		for d, want := range outputs {
			if !bytes.Equal(first.Outputs[d], want) || !bytes.Equal(first.PerDataset[d].Output, want) {
				t.Errorf("%v: dataset %d output became %x (per dataset %x), want %x",
					scheme, d, first.Outputs[d], first.PerDataset[d].Output, want)
			}
		}
	}
}
