//go:build !race

// Excluded under -race: race instrumentation allocates on its own.

package workloads

import "testing"

// TestAllocsIDSJob pins the compile-once pattern: a packet checked
// against the canonical pattern, with one match, allocates only the
// match index and the output (52 objects when every call compiled).
func TestAllocsIDSJob(t *testing.T) {
	const limit = 3
	inputs := [][]byte{[]byte("header CMD=REBOOT trailer"), []byte(idsPattern)}
	if _, err := idsJob(inputs); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := idsJob(inputs); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("idsJob allocated %v objects per call, want ≤ %d", got, limit)
	}
}
