package ild

import (
	"testing"
	"time"

	"radshield/internal/forest"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

// telAt builds a minimal telemetry sample with the given currents.
func telAt(raw, filtered float64) machine.Telemetry {
	return machine.Telemetry{RawA: raw, CurrentA: filtered}
}

// newStatic fails the test on constructor errors; validation behavior
// has its own test below.
func newStatic(t *testing.T, level float64) *StaticThreshold {
	t.Helper()
	s, err := NewStaticThreshold(level)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStaticThresholdSustain(t *testing.T) {
	s := newStatic(t, 1.75)
	if s.SustainSamples != 5 {
		t.Fatalf("default sustain = %d, want 5", s.SustainSamples)
	}
	// Four over-level samples: not yet.
	for i := 0; i < 4; i++ {
		if s.Observe(telAt(2.0, 2.0)) {
			t.Fatalf("tripped after %d samples", i+1)
		}
	}
	// Fifth consecutive: trip.
	if !s.Observe(telAt(2.0, 2.0)) {
		t.Fatal("did not trip after 5 sustained samples")
	}
	// A single below-level sample resets the count.
	s.Observe(telAt(1.0, 1.0))
	for i := 0; i < 4; i++ {
		if s.Observe(telAt(2.0, 2.0)) {
			t.Fatal("tripped without full sustain after reset")
		}
	}
}

func TestStaticThresholdIgnoresSingleSpikes(t *testing.T) {
	s := newStatic(t, 1.75)
	for i := 0; i < 100; i++ {
		// Alternating spike / quiet: integrating comparators stay calm.
		if s.Observe(telAt(2.5, 1.5)) {
			t.Fatal("tripped on isolated spikes")
		}
		if s.Observe(telAt(1.5, 1.5)) {
			t.Fatal("tripped below level")
		}
	}
}

func TestStaticThresholdZeroSustainActsImmediate(t *testing.T) {
	s := &StaticThreshold{LevelA: 1.0, SustainSamples: 0}
	if !s.Observe(telAt(1.5, 1.5)) {
		t.Fatal("sustain 0 should behave like 1")
	}
}

func TestStaticThresholdValidation(t *testing.T) {
	for _, level := range []float64{0, -1.5} {
		if _, err := NewStaticThreshold(level); err == nil {
			t.Fatalf("NewStaticThreshold(%v) accepted a non-positive level", level)
		}
	}
}

func TestForestDetectorSeparatesBands(t *testing.T) {
	// Train on two clean current bands and check Observe follows them.
	var currents []float64
	var labels []int
	for i := 0; i < 200; i++ {
		currents = append(currents, 1.5+float64(i%10)*0.001)
		labels = append(labels, 0)
		currents = append(currents, 1.62+float64(i%10)*0.001)
		labels = append(labels, 1)
	}
	d := TrainForestDetector(currents, labels, forest.Config{Trees: 10, Seed: 1})
	if d.Observe(telAt(1.5, 1.5)) {
		t.Error("nominal band flagged")
	}
	if !d.Observe(telAt(1.62, 1.62)) {
		t.Error("SEL band missed")
	}
}

func TestDetectorModelAccessor(t *testing.T) {
	_, det := trainedDetector(t, 61)
	m := det.Model()
	if m == nil || len(m.Weights) != FeatureDim(4) {
		t.Fatalf("Model() = %+v", m)
	}
}

func TestOverheadFractionZeroPause(t *testing.T) {
	p := BubblePolicy{BubbleLen: 0, Pause: 0}
	if got := p.OverheadFraction(); got != 0 {
		t.Fatalf("OverheadFraction with zero pause = %v", got)
	}
}

func BenchmarkDetectorObserve(b *testing.B) {
	m := machine.New(machine.DefaultConfig())
	trainer := NewTrainer(DefaultConfig())
	// Train on a handful of idle samples and time the last one.
	var tel machine.Telemetry
	m.RunTrace(&trace.Trace{Segments: []trace.Segment{{Duration: 110 * time.Millisecond, Kind: trace.Idle}}},
		func(s machine.Telemetry) {
			trainer.Add(s)
			tel = s
		})
	tel.PerCore = append([]machine.CoreTelemetry(nil), tel.PerCore...)
	det, err := trainer.Fit()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(tel)
	}
}
