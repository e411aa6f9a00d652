package workloads

import (
	"bytes"
	"fmt"
	"testing"

	"radshield/internal/emr"
)

// The append contract (emr.JobFunc): a job appends its output to the
// dst it is handed, whose capacity is the free tail of the executor's
// output buffer. These tests hold every in-repo job to it.

// jobCase is one dataset of an in-repo job with its inputs read from
// the frontier.
type jobCase struct {
	name    string
	dataset int
	job     emr.JobFunc
	inputs  [][]byte
}

// jobCases returns every dataset of every workload's job, the Table 5
// set and the NCC variant, built at 32 KiB. Compression's first dataset
// has no dictionary and the others have one.
func jobCases(t testing.TB) []jobCase {
	t.Helper()
	var cases []jobCase
	for _, b := range append(All(), ImageProcessingNCC()) {
		rt, err := emr.New(emr.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		spec, err := b.Build(rt, 32<<10, 7)
		if err != nil {
			t.Fatal(err)
		}
		for d, ds := range spec.Datasets {
			inputs := make([][]byte, len(ds.Inputs))
			for i, in := range ds.Inputs {
				inputs[i] = make([]byte, in.Region.Len)
				if err := rt.Cache().Read(in.Region.Addr, inputs[i]); err != nil {
					t.Fatal(err)
				}
			}
			cases = append(cases, jobCase{b.Name, d, spec.Job, inputs})
		}
	}
	return cases
}

func (c jobCase) String() string { return fmt.Sprintf("%s dataset %d", c.name, c.dataset) }

// cloneInputs returns fresh copies of a job's inputs.
func cloneInputs(inputs [][]byte) [][]byte {
	out := make([][]byte, len(inputs))
	for i, in := range inputs {
		out[i] = bytes.Clone(in)
	}
	return out
}

// canary fills the capacity of the dst slices the tests hand to jobs.
const canary = 0xa5

// checkAppend runs c's job over inputs on a zero-length dst with room
// bytes of capacity, all canary, and fails unless it returns want (or,
// when want is nil, an error like wantErr's). An output that fits must
// land in dst and leave the capacity past it untouched.
func checkAppend(t testing.TB, c jobCase, inputs [][]byte, want []byte, wantErr error, room int) {
	t.Helper()
	backing := bytes.Repeat([]byte{canary}, room)
	got, err := c.job(backing[:0], inputs)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%v with %d bytes of room: error %v, but %v with a nil dst", c, room, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v with %d bytes of room: output %x, but %x with a nil dst", c, room, got, want)
	}
	if len(got) == 0 || room < len(got) {
		return
	}
	if &got[0] != &backing[0] {
		t.Fatalf("%v with %d bytes of room: a %d-byte output did not land in dst", c, room, len(got))
	}
	for i, b := range backing[len(got):] {
		if b != canary {
			t.Fatalf("%v with %d bytes of room: byte %d past the %d-byte output changed to %#x", c, room, i, len(got), b)
		}
	}
}

// TestJobsAppendToDst holds every job to the append contract: handed a
// dst with no room, too little, exactly enough or more, it returns the
// bytes it returns with a nil dst, and an output that fits lands in dst
// without touching the capacity past it.
func TestJobsAppendToDst(t *testing.T) {
	for _, c := range jobCases(t) {
		want, err := c.job(nil, c.inputs)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for _, room := range []int{0, len(want) - 1, len(want), len(want) + 64} {
			checkAppend(t, c, c.inputs, want, nil, room)
		}
	}
}

// FuzzJobsAppend varies a job's input corruption and its dst's
// capacity: whatever bytes an upset leaves in the inputs, the job must
// return with any dst what it returns with a nil one, and leave the
// canary past a landed output intact.
func FuzzJobsAppend(f *testing.F) {
	cases := jobCases(f)
	// Seeds: an intact encryption chunk, a struck compression
	// dictionary, a struck intrusion-detection pattern, a struck
	// image-processing strip with too little room, and a struck NCC
	// template.
	f.Add(uint8(0), uint32(0), uint8(0), uint16(4096))
	f.Add(uint8(9), uint32(20), uint8(0x10), uint16(300))
	f.Add(uint8(10), uint32(1540), uint8(0x80), uint16(4))
	f.Add(uint8(31), uint32(100), uint8(0x01), uint16(23))
	f.Add(uint8(166), uint32(9000), uint8(0xff), uint16(24))
	f.Fuzz(func(t *testing.T, which uint8, off uint32, flip uint8, room uint16) {
		c := cases[int(which)%len(cases)]
		inputs := cloneInputs(c.inputs)
		total := 0
		for _, in := range inputs {
			total += len(in)
		}
		// Flip bits of one byte, counting across the inputs in order.
		at := int(off % uint32(total))
		for _, in := range inputs {
			if at < len(in) {
				in[at] ^= flip
				break
			}
			at -= len(in)
		}
		want, wantErr := c.job(nil, inputs)
		checkAppend(t, c, inputs, want, wantErr, int(room))
	})
}
