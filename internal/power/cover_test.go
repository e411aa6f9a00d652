package power

import "testing"

// TestBaselineOffsetShiftsCurrent pins that the sensor reads the true
// current it is given: a drift offset, alone or stacked on a latchup,
// shifts a noise-free sensor's readings by exactly that offset.
func TestBaselineOffsetShiftsCurrent(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigmaA, p.SpikeProb = 0, 0
	s := NewSensor(p, 1)
	idle := p.TrueCurrent(BoardState{})
	base := s.Read(idle, 0, 5).FilteredA
	if got := s.Read(idle+0.03, 0, 5).FilteredA; got != base+0.03 {
		t.Fatalf("reading with drift = %v, want %v", got, base+0.03)
	}
	// Drift and SEL offsets stack independently.
	if got := s.Read(idle+0.07+0.03, 0, 5).FilteredA; got != base+0.10 {
		t.Fatalf("stacked offsets = %v, want %v", got, base+0.10)
	}
	if got := s.Read(idle+0.07-0.03, 0, 5).FilteredA; got != base+0.04 {
		t.Fatalf("negative drift = %v, want %v", got, base+0.04)
	}
}
