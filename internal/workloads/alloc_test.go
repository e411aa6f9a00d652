//go:build !race

// Excluded under -race: race instrumentation allocates on its own.

package workloads

import "testing"

// TestAllocsIDSJob pins the compile-once pattern: a packet checked
// against the canonical pattern, with one match, into a dst with room
// allocates only the match index (52 objects when every call compiled,
// and one more for the output with a nil dst).
func TestAllocsIDSJob(t *testing.T) {
	const limit = 2
	inputs := [][]byte{[]byte("header CMD=REBOOT trailer"), []byte(idsPattern)}
	dst := make([]byte, 0, 4)
	if _, err := idsJob(dst, inputs); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := idsJob(dst, inputs); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("idsJob allocated %v objects per call, want ≤ %d", got, limit)
	}
}

// TestAllocsJobsAppend checks that no job allocates its output when dst
// has room: every job allocates fewer objects than with a nil dst, and
// the image-processing jobs (SAD and NCC) and dnn, whose output is all
// they allocate, allocate nothing. What the others keep is their own:
// encryption's cipher, intrusion detection's match index and
// compression's writer.
func TestAllocsJobsAppend(t *testing.T) {
	outputOnly := map[string]bool{"image-processing": true, "image-processing-ncc": true, "dnn": true}
	for _, c := range jobCases(t) {
		want, err := c.job(nil, c.inputs)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		allocs := func(dst []byte) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := c.job(dst, c.inputs); err != nil {
					t.Fatal(err)
				}
			})
		}
		roomy, bare := allocs(make([]byte, 0, len(want))), allocs(nil)
		if roomy >= bare {
			t.Errorf("%v allocates %v objects with room in dst and %v with a nil dst, want fewer with room", c, roomy, bare)
		}
		if outputOnly[c.name] && roomy != 0 {
			t.Errorf("%v allocates %v objects with room in dst, want 0", c, roomy)
		}
	}
}
