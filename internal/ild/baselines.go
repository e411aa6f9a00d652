package ild

import (
	"fmt"

	"radshield/internal/forest"
	"radshield/internal/machine"
)

// Monitor is the common shape of SEL detectors: consume telemetry in
// order, report per-sample whether a latchup is declared. ILD's Detector
// and every baseline satisfy it, so the Table 2 harness treats them
// uniformly.
type Monitor interface {
	Observe(machine.Telemetry) bool
}

var (
	_ Monitor = (*Detector)(nil)
	_ Monitor = (*StaticThreshold)(nil)
	_ Monitor = (*ForestDetector)(nil)
)

// StaticThreshold is the classic black-box SEL protection (paper §2.1):
// declare a latchup whenever measured current exceeds a fixed level for
// a few consecutive samples (real trip circuits integrate over
// milliseconds so microsecond transients do not nuisance-trip). Tuned
// near quiescent draw it false-positives on any compute; tuned near
// workload draw it misses every micro-SEL.
type StaticThreshold struct {
	LevelA float64
	// SustainSamples is how many consecutive over-level readings trip
	// the detector (≥1).
	SustainSamples int

	consecutive int
}

// NewStaticThreshold returns a detector tripping after 5 consecutive
// readings above level amps. A non-positive level is a configuration
// error.
func NewStaticThreshold(level float64) (*StaticThreshold, error) {
	if level <= 0 {
		return nil, fmt.Errorf("ild: static threshold %v, want > 0", level)
	}
	return &StaticThreshold{LevelA: level, SustainSamples: 5}, nil
}

// Observe implements Monitor on the raw (unfiltered) current reading —
// thresholding hardware sees the raw signal.
func (s *StaticThreshold) Observe(tel machine.Telemetry) bool {
	need := s.SustainSamples
	if need < 1 {
		need = 1
	}
	if tel.RawA > s.LevelA {
		s.consecutive++
	} else {
		s.consecutive = 0
	}
	return s.consecutive >= need
}

// Reset clears the sustain run (used after a power cycle, like
// Detector.Reset).
func (s *StaticThreshold) Reset() { s.consecutive = 0 }

// ForestDetector is the state-of-the-art ML baseline (paper §4.1.2,
// after Dorise et al.): a random forest trained *solely on current draw*
// — the system treated as a black box, no performance counters, no
// temporal context.
type ForestDetector struct {
	f *forest.Forest
}

// TrainForestDetector fits the baseline on labelled current samples
// (label 1 = latchup present).
func TrainForestDetector(currents []float64, labels []int, cfg forest.Config) *ForestDetector {
	return &ForestDetector{f: forest.Train(currentRows(currents), labels, cfg)}
}

// currentRows views each current as a one-feature row, without copying.
func currentRows(currents []float64) [][]float64 {
	X := make([][]float64, len(currents))
	for i := range currents {
		X[i] = currents[i : i+1 : i+1]
	}
	return X
}

// Observe implements Monitor.
func (d *ForestDetector) Observe(tel machine.Telemetry) bool {
	return d.f.Predict([]float64{tel.CurrentA}) == 1
}
