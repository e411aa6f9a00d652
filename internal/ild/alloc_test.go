//go:build !race

// Allocation-regression tests for the monitors' hot path: Observe runs
// once per telemetry sample for entire simulated missions, so a single
// allocation here multiplies into millions per campaign (feature
// extraction alone was once 12% of all campaign objects, the forest
// baseline's vote tally 90% of Table 2's, see PERFORMANCE.md). Excluded
// under -race: race instrumentation allocates on its own.

package ild

import (
	"testing"
	"time"

	"radshield/internal/forest"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
)

func TestAllocsObserve(t *testing.T) {
	cores := 2
	model := &linmodel.Model{Weights: make([]float64, FeatureDim(cores)), Intercept: 1.5}
	det, err := NewDetector(model, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	quiet := machine.Telemetry{
		CurrentA: 1.52,
		RawA:     1.6,
		PerCore: []machine.CoreTelemetry{
			{InstrPerSec: 1e6, BusCyclesPerSec: 2e6, FreqHz: 6e8, CacheHitRate: 0.9},
			{InstrPerSec: 1e6, BusCyclesPerSec: 2e6, FreqHz: 6e8, CacheHitRate: 0.9},
		},
	}
	busy := quiet
	busy.PerCore = []machine.CoreTelemetry{
		{InstrPerSec: 4e8, BusCyclesPerSec: 8e8, FreqHz: 1.4e9, CacheHitRate: 0.95},
		{InstrPerSec: 4e8, BusCyclesPerSec: 8e8, FreqHz: 1.4e9, CacheHitRate: 0.95},
	}

	det.Observe(quiet) // first sample establishes the feature scratch buffer

	tick := DefaultConfig().SampleEvery
	now := time.Duration(0)
	avg := testing.AllocsPerRun(1000, func() {
		// Alternate quiescent and loaded samples so both Observe branches
		// (measure, and reset-on-load) stay on the pinned zero-alloc path.
		now += tick
		quiet.T, busy.T = now, now
		det.Observe(quiet)
		det.Observe(busy)
	})
	if avg != 0 {
		t.Errorf("Observe allocates %.3f objects per sample pair, want 0", avg)
	}
}

// TestAllocsBaselineObserve pins the Table 2 baselines, which replay the
// same flight stream as ILD: the current-only forest and the static
// threshold.
func TestAllocsBaselineObserve(t *testing.T) {
	currents := []float64{1.50, 1.51, 1.52, 1.53, 1.58, 1.59, 1.60, 1.61}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	static, err := NewStaticThreshold(1.55)
	if err != nil {
		t.Fatal(err)
	}
	monitors := []struct {
		name string
		m    Monitor
	}{
		{"forest", TrainForestDetector(currents, labels, forest.Config{Trees: 5, MinLeaf: 1, Seed: 1})},
		{"static", static},
	}
	quiet := machine.Telemetry{CurrentA: 1.51, RawA: 1.51}
	latched := machine.Telemetry{CurrentA: 1.60, RawA: 1.60}
	for _, mon := range monitors {
		if avg := testing.AllocsPerRun(1000, func() {
			mon.m.Observe(quiet)
			mon.m.Observe(latched)
		}); avg != 0 {
			t.Errorf("%s: Observe allocates %.3f objects per sample pair, want 0", mon.name, avg)
		}
	}
}

// TestAllocsRecorderObserve pins ildmon's flight-log path: a detector
// with a recorder attached writes each sample's record into the
// preallocated ring, so a record costs nothing.
func TestAllocsRecorderObserve(t *testing.T) {
	cores := 2
	model := &linmodel.Model{Weights: make([]float64, FeatureDim(cores)), Intercept: 1.5}
	det, err := NewDetector(model, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecorder(det, 64); err != nil {
		t.Fatal(err)
	}
	quiet := machine.Telemetry{
		CurrentA: 1.52,
		PerCore: []machine.CoreTelemetry{
			{InstrPerSec: 1e6, BusCyclesPerSec: 2e6, FreqHz: 6e8, CacheHitRate: 0.9},
			{InstrPerSec: 1e6, BusCyclesPerSec: 2e6, FreqHz: 6e8, CacheHitRate: 0.9},
		},
	}
	busy := quiet
	busy.PerCore = []machine.CoreTelemetry{
		{InstrPerSec: 4e8, BusCyclesPerSec: 8e8, FreqHz: 1.4e9, CacheHitRate: 0.95},
		{InstrPerSec: 4e8, BusCyclesPerSec: 8e8, FreqHz: 1.4e9, CacheHitRate: 0.95},
	}
	det.Observe(quiet) // first sample establishes the scratch buffers

	tick := DefaultConfig().SampleEvery
	now := time.Duration(0)
	avg := testing.AllocsPerRun(1000, func() {
		now += tick
		quiet.T, busy.T = now, now
		det.Observe(quiet)
		det.Observe(busy)
	})
	if avg != 0 {
		t.Errorf("a recording detector's Observe allocates %.3f objects per sample pair, want 0", avg)
	}
}
