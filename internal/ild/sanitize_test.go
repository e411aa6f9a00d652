package ild

import (
	"math"
	"testing"
	"time"

	"radshield/internal/machine"
	"radshield/internal/telemetry"
)

// quiescentTel builds a clean quiescent sample at the given current.
func quiescentTel(t time.Duration, currentA float64) machine.Telemetry {
	return machine.Telemetry{
		T:        t,
		CurrentA: currentA,
		RawA:     currentA,
		PerCore:  []machine.CoreTelemetry{{FreqHz: 600e6, CacheHitRate: 0.97}},
	}
}

func fitTrivialDetector(t *testing.T) *Detector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SustainFor = 3 * time.Millisecond // 3-sample window
	tr := NewTrainer(cfg)
	for i := 0; i < 50; i++ {
		tel := quiescentTel(time.Duration(i)*time.Millisecond, 1.55+0.0001*float64(i%3))
		if !tr.Add(tel) {
			t.Fatalf("clean quiescent sample %d rejected", i)
		}
	}
	det, err := tr.Fit()
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// countBadSamples attaches fresh instruments to det and returns the
// counter its rejected samples land in.
func countBadSamples(det *Detector) *telemetry.Counter {
	ins := NewInstruments(telemetry.NewRegistry(64))
	det.SetInstruments(ins)
	return ins.BadSamples
}

func TestObserveRejectsNaNCurrent(t *testing.T) {
	det := fitTrivialDetector(t)
	bad := countBadSamples(det)
	// Prime the window with a latchup-sized excess, one sample short of
	// declaring.
	det.Observe(quiescentTel(0, 1.65))
	det.Observe(quiescentTel(time.Millisecond, 1.65))

	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if det.Observe(quiescentTel(time.Duration(2+i)*time.Millisecond, bad)) {
			t.Fatalf("detector declared on a non-finite sample %v", bad)
		}
	}
	if bad.Value() != 3 {
		t.Fatalf("rejected %d samples, want 3", bad.Value())
	}
	if r := det.Residual(); math.IsNaN(r) {
		t.Fatal("NaN reached the averaging window")
	}
	// The primed window survived the bad samples: one more clean excess
	// sample completes the sustain run.
	if !det.Observe(quiescentTel(5*time.Millisecond, 1.65)) {
		t.Fatal("window lost its state across rejected samples")
	}
}

func TestObserveRejectsNaNFeatures(t *testing.T) {
	det := fitTrivialDetector(t)
	bad := countBadSamples(det)
	tel := quiescentTel(0, 1.55)
	tel.PerCore[0].InstrPerSec = math.NaN() // corrupt counter read
	if det.Observe(tel) {
		t.Fatal("declared on NaN features")
	}
	if bad.Value() != 1 {
		t.Fatalf("rejected %d samples, want 1", bad.Value())
	}
	tel2 := quiescentTel(time.Millisecond, 1.55)
	tel2.DiskWritePerSec = math.Inf(1)
	det.Observe(tel2)
	if bad.Value() != 2 {
		t.Fatalf("rejected %d samples, want 2", bad.Value())
	}
}

func TestBadSamplesCountedInTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(64)
	ins := NewInstruments(reg)
	det := fitTrivialDetector(t)
	det.SetInstruments(ins)
	det.Observe(quiescentTel(0, math.NaN()))
	if got := ins.BadSamples.Value(); got != 1 {
		t.Fatalf("ild_bad_samples_total = %v, want 1", got)
	}
	events := reg.Snapshot().Events
	found := false
	for _, ev := range events {
		if ev.Kind == telemetry.KindBadSample && ev.Fields["reason"] == "current" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ild_bad_sample event emitted; events: %v", events)
	}
}

func TestTrainerRejectsNaNSamples(t *testing.T) {
	tr := NewTrainer(DefaultConfig())
	if tr.Add(quiescentTel(0, math.NaN())) {
		t.Fatal("trainer accepted a NaN current")
	}
	bad := quiescentTel(0, 1.55)
	bad.PerCore[0].BranchMissRate = math.Inf(1)
	if tr.Add(bad) {
		t.Fatal("trainer accepted an Inf feature")
	}
	if len(tr.y) != 0 {
		t.Fatalf("kept %d samples, want 0", len(tr.y))
	}
}

func TestTrainerRejectsMixedCoreCounts(t *testing.T) {
	tr := NewTrainer(DefaultConfig())
	if !tr.Add(quiescentTel(0, 1.55)) {
		t.Fatal("trainer rejected a clean one-core sample")
	}
	twoCores := quiescentTel(time.Millisecond, 1.55)
	twoCores.PerCore = append(twoCores.PerCore, twoCores.PerCore[0])
	if tr.Add(twoCores) {
		t.Fatal("trainer accepted a two-core sample after a one-core one")
	}
	if len(tr.y) != 1 {
		t.Fatalf("kept %d samples, want 1", len(tr.y))
	}
	if _, err := tr.Fit(); err == nil {
		t.Fatal("Fit succeeded on samples mixing core counts")
	}
}

// refBadSampleReason is the per-field classification alone, without
// badSampleReason's one-pass finiteness sum in front of it.
func refBadSampleReason(tel machine.Telemetry) string {
	if !finite(tel.CurrentA) {
		return "current"
	}
	for _, c := range tel.PerCore {
		if !finite(c.InstrPerSec) || !finite(c.BusCyclesPerSec) || !finite(c.FreqHz) ||
			!finite(c.BranchMissRate) || !finite(c.CacheHitRate) {
			return "features"
		}
	}
	if !finite(tel.DiskReadPerSec) || !finite(tel.DiskWritePerSec) {
		return "features"
	}
	return ""
}

// TestBadSampleFastPathMatchesClassification pins the one-pass
// finiteness sum: for NaN, ±Inf, ±0, subnormals and ±MaxFloat64 in any
// one or two fields of a sample, badSampleReason returns what the
// per-field classification returns.
func TestBadSampleFastPathMatchesClassification(t *testing.T) {
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1.55}
	base := machine.Telemetry{
		T: time.Second, CurrentA: 1.55, RawA: 1.6, DiskReadPerSec: 3, DiskWritePerSec: 4,
		PerCore: []machine.CoreTelemetry{
			{InstrPerSec: 1e8, BusCyclesPerSec: 2e6, FreqHz: 600e6, BranchMissRate: 0.02, CacheHitRate: 0.9},
			{InstrPerSec: 2e8, BusCyclesPerSec: 3e6, FreqHz: 1.4e9, BranchMissRate: 0.01, CacheHitRate: 0.8},
		},
	}
	// fields returns pointers to every float in tel, the unchecked RawA
	// included.
	fields := func(tel *machine.Telemetry) []*float64 {
		f := []*float64{&tel.CurrentA, &tel.RawA, &tel.DiskReadPerSec, &tel.DiskWritePerSec}
		for i := range tel.PerCore {
			c := &tel.PerCore[i]
			f = append(f, &c.InstrPerSec, &c.BusCyclesPerSec, &c.FreqHz, &c.BranchMissRate, &c.CacheHitRate)
		}
		return f
	}
	clone := func() machine.Telemetry {
		tel := base
		tel.PerCore = append([]machine.CoreTelemetry(nil), base.PerCore...)
		return tel
	}
	n := len(fields(&base))
	checked := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			for _, vi := range values {
				for _, vj := range values {
					tel := clone()
					f := fields(&tel)
					*f[i], *f[j] = vi, vj
					if got, want := badSampleReason(tel), refBadSampleReason(tel); got != want {
						t.Fatalf("fields %d=%v, %d=%v: badSampleReason = %q, classification %q", i, vi, j, vj, got, want)
					}
					checked++
				}
			}
		}
	}
	if got := badSampleReason(machine.Telemetry{CurrentA: math.NaN()}); got != "current" {
		t.Fatalf("core-less NaN sample = %q, want current", got)
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
}
