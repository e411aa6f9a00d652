package ild

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"radshield/internal/machine"
	"radshield/internal/trace"
)

// trainedDetector builds a machine and an ILD detector trained on a
// quiescent ground trace, mirroring the pre-launch procedure.
func trainedDetector(t *testing.T, seed int64) (*machine.Machine, *Detector) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.SensorSeed = seed
	m := machine.New(cfg)
	trainer := NewTrainer(DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Quiescent(rng, 30*time.Second, 5*time.Second)
	m.RunTrace(tr, func(tel machine.Telemetry) { trainer.Add(tel) })
	if len(trainer.y) < 1000 {
		t.Fatalf("only %d training samples", len(trainer.y))
	}
	det, err := trainer.Fit()
	if err != nil {
		t.Fatal(err)
	}
	return m, det
}

func TestNoFalseAlarmDuringCleanQuiescence(t *testing.T) {
	m, det := trainedDetector(t, 1)
	rng := rand.New(rand.NewSource(2))
	tr := trace.Quiescent(rng, 60*time.Second, 5*time.Second)
	alarms := 0
	m.RunTrace(tr, func(tel machine.Telemetry) {
		if det.Observe(tel) {
			alarms++
		}
	})
	if alarms != 0 {
		t.Fatalf("clean quiescence produced %d alarm samples", alarms)
	}
}

func TestDetectsMicroSELWithinSustainWindow(t *testing.T) {
	m, det := trainedDetector(t, 3)
	m.InjectSEL(0.07)
	rng := rand.New(rand.NewSource(4))
	tr := trace.Quiescent(rng, 30*time.Second, 5*time.Second)
	var firstAlarm time.Duration = -1
	start := m.Now()
	m.RunTrace(tr, func(tel machine.Telemetry) {
		if firstAlarm < 0 && det.Observe(tel) {
			firstAlarm = tel.T - start
		}
	})
	if firstAlarm < 0 {
		t.Fatal("+0.07 A SEL never detected")
	}
	// Window must fill (3 s) before a flag; detection should follow
	// almost immediately after.
	if firstAlarm < det.cfg.SustainFor || firstAlarm > det.cfg.SustainFor+5*time.Second {
		t.Fatalf("first alarm at %v, want shortly after %v", firstAlarm, det.cfg.SustainFor)
	}
}

func TestIgnoresSELBelowThresholdMargin(t *testing.T) {
	// A +0.03 A excess sits below the 0.055 A decision threshold: the
	// detector must stay quiet (the paper tunes the threshold to trade
	// exactly this off; real SELs are ≥0.07 A).
	m, det := trainedDetector(t, 5)
	m.InjectSEL(0.03)
	rng := rand.New(rand.NewSource(6))
	alarms := 0
	m.RunTrace(trace.Quiescent(rng, 20*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		if det.Observe(tel) {
			alarms++
		}
	})
	if alarms != 0 {
		t.Fatalf("sub-threshold SEL produced %d alarms", alarms)
	}
}

func TestWorkloadGatesDetection(t *testing.T) {
	// Under load the detector must neither alarm nor accumulate window
	// state — even with an active SEL (it waits for quiescence).
	m, det := trainedDetector(t, 7)
	m.InjectSEL(0.07)
	rng := rand.New(rand.NewSource(8))
	busy := trace.Burst(rng, 10*time.Second, 4)
	alarmsUnderLoad := 0
	m.RunTrace(busy, func(tel machine.Telemetry) {
		if det.Observe(tel) {
			alarmsUnderLoad++
		}
	})
	if alarmsUnderLoad != 0 {
		t.Fatalf("alarms under load: %d", alarmsUnderLoad)
	}
	// Once the workload ends, quiescence exposes the latchup.
	detected := false
	m.RunTrace(trace.Quiescent(rng, 10*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		if det.Observe(tel) {
			detected = true
		}
	})
	if !detected {
		t.Fatal("SEL not detected after workload ended")
	}
}

func TestHousekeepingBlipsDoNotAlarm(t *testing.T) {
	// Frequent housekeeping (the system-task current spikes that defeat
	// black-box detectors) must be explained away by the counter model.
	m, det := trainedDetector(t, 9)
	rng := rand.New(rand.NewSource(10))
	tr := trace.Quiescent(rng, 60*time.Second, time.Second) // blip every ~1 s
	alarms := 0
	m.RunTrace(tr, func(tel machine.Telemetry) {
		if det.Observe(tel) {
			alarms++
		}
	})
	if alarms != 0 {
		t.Fatalf("housekeeping produced %d alarms", alarms)
	}
}

func TestResidualAndReset(t *testing.T) {
	m, det := trainedDetector(t, 11)
	m.InjectSEL(0.07)
	rng := rand.New(rand.NewSource(12))
	m.RunTrace(trace.Quiescent(rng, 5*time.Second, 2*time.Second), func(tel machine.Telemetry) {
		det.Observe(tel)
	})
	if r := det.Residual(); r < 0.05 {
		t.Fatalf("residual = %v, want ≈0.07", r)
	}
	det.Reset()
	if det.Residual() != 0 {
		t.Fatal("Reset did not clear residual")
	}
}

func TestTrainerRejectsBusySamples(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	trainer := NewTrainer(DefaultConfig())
	rng := rand.New(rand.NewSource(13))
	used := 0
	m.RunTrace(trace.Burst(rng, 2*time.Second, 4), func(tel machine.Telemetry) {
		if trainer.Add(tel) {
			used++
		}
	})
	if used != 0 {
		t.Fatalf("trainer accepted %d busy samples", used)
	}
	if _, err := trainer.Fit(); err == nil {
		t.Fatal("Fit with no samples succeeded")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ThresholdA: 0, SustainFor: time.Second, SampleEvery: time.Millisecond},
		{ThresholdA: math.NaN(), SustainFor: time.Second, SampleEvery: time.Millisecond},
		{ThresholdA: 0.05, SustainFor: 0, SampleEvery: time.Millisecond},
		{ThresholdA: 0.05, SustainFor: time.Second, SampleEvery: 0},
	} {
		if _, err := NewDetector(nil, cfg); err == nil {
			t.Errorf("config %+v was accepted", cfg)
		}
	}
	// A valid config still constructs.
	if _, err := NewDetector(nil, DefaultConfig()); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
}

func TestFeatureVectorShape(t *testing.T) {
	tel := machine.Telemetry{PerCore: make([]machine.CoreTelemetry, 4)}
	f := AppendFeatures(nil, tel)
	if len(f) != FeatureDim(4) {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatureDim(4))
	}
	names := FeatureNames(4)
	if len(names) != len(f) {
		t.Fatalf("names (%d) and features (%d) disagree", len(names), len(f))
	}
	if names[0] != "core0.instr_per_sec" || names[len(names)-1] != "disk_writes_per_sec" {
		t.Fatalf("unexpected names: %v", names)
	}
}

// TestSetThresholdMatchesFreshDetector pins the retune an adaptive
// posture makes: a detector retuned by SetThreshold partway through a
// flight with a latchup and busy stretches observes the rest of it bit
// for bit like a detector built fresh at the new threshold there, while
// a threshold not above 0 is rejected and changes nothing.
func TestSetThresholdMatchesFreshDetector(t *testing.T) {
	m, base := trainedDetector(t, 51)
	cfg := DefaultConfig()
	cfg.ThresholdA = 0.04
	retuned, err := NewDetector(base.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Now()
	if err := m.InjectSEL(0.08); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	var fresh *Detector
	firedBefore, firedAfter := 0, 0
	m.RunTrace(trace.Quiescent(rng, 30*time.Second, 7*time.Second), func(tel machine.Telemetry) {
		if fresh == nil && tel.T >= start+12*time.Second && retuned.Residual() != 0 {
			before := retuned.Residual()
			for _, a := range []float64{0, -0.05, math.NaN()} {
				if err := retuned.SetThreshold(a); err == nil {
					t.Fatalf("SetThreshold(%v) accepted", a)
				}
			}
			if retuned.Residual() != before || retuned.cfg.ThresholdA != 0.04 {
				t.Fatal("a rejected SetThreshold changed the detector")
			}
			if err := retuned.SetThreshold(0.07); err != nil {
				t.Fatal(err)
			}
			cfg.ThresholdA = 0.07
			if fresh, err = NewDetector(base.Model(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		got := retuned.Observe(tel)
		if fresh == nil {
			if got {
				firedBefore++
			}
			return
		}
		want := fresh.Observe(tel)
		if got != want || math.Float64bits(retuned.Residual()) != math.Float64bits(fresh.Residual()) {
			t.Fatalf("at %v: retuned Observe = %v, residual %v; fresh %v, residual %v",
				tel.T, got, retuned.Residual(), want, fresh.Residual())
		}
		if got {
			firedAfter++
		}
	})
	if fresh == nil || firedBefore == 0 || firedAfter == 0 {
		t.Fatalf("retuned: %v; fired %d times before the retune and %d after, want both > 0",
			fresh != nil, firedBefore, firedAfter)
	}
}
