//go:build !race

package alfg

import (
	"math/rand"
	"testing"
)

var (
	sinkRand   *rand.Rand
	sinkSource *Source
)

// TestAllocsNew pins that moving a stream from *rand.Rand to a Source
// costs no extra objects: a kept New(seed) allocates no more than a kept
// rand.New(rand.NewSource(seed)), and a reading allocates nothing.
func TestAllocsNew(t *testing.T) {
	want := testing.AllocsPerRun(100, func() { sinkRand = rand.New(rand.NewSource(7)) })
	got := testing.AllocsPerRun(100, func() { sinkSource = New(7) })
	if got > want {
		t.Errorf("New allocates %.0f objects, rand.New(rand.NewSource(seed)) %.0f", got, want)
	}
	s := New(7)
	n := Noise{Sigma: 0.02, SpikeProb: 0.025, SpikeLo: 0.05, SpikeSpan: 0.95}
	var sum float64
	if a := testing.AllocsPerRun(1000, func() { sum += s.MinReading(1.55, n, 5) }); a != 0 {
		t.Errorf("a reading allocates %.1f objects, want 0", a)
	}
	_ = sum
}
