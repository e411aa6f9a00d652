package power

import "testing"

func TestBaselineOffsetShiftsCurrent(t *testing.T) {
	s := NewSensor(NewModel(DefaultParams()), 1)
	base := s.TrueCurrentFrom(s.model.TrueCurrent(BoardState{}))
	s.SetBaselineOffset(0.03)
	if got := s.baseOffset; got != 0.03 {
		t.Fatalf("BaselineOffset = %v", got)
	}
	if got := s.TrueCurrentFrom(s.model.TrueCurrent(BoardState{})); got != base+0.03 {
		t.Fatalf("TrueCurrent with drift = %v, want %v", got, base+0.03)
	}
	// Drift and SEL offsets stack independently.
	s.SetSELOffset(0.07)
	if got := s.TrueCurrentFrom(s.model.TrueCurrent(BoardState{})); got != base+0.10 {
		t.Fatalf("stacked offsets = %v, want %v", got, base+0.10)
	}
	s.SetBaselineOffset(-0.03)
	if got := s.TrueCurrentFrom(s.model.TrueCurrent(BoardState{})); got != base+0.04 {
		t.Fatalf("negative drift = %v, want %v", got, base+0.04)
	}
}
