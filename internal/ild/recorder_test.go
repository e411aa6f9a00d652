package ild

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

// newRecorder fails the test on constructor errors; validation behavior
// has its own test below.
func newRecorder(t *testing.T, det *Detector, capacity int) *Recorder {
	t.Helper()
	rec, err := NewRecorder(det, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesObservations(t *testing.T) {
	m, det := trainedDetector(t, 31)
	rec := newRecorder(t, det, 100000)
	m.InjectSEL(0.08)
	rng := rand.New(rand.NewSource(32))
	flagged := 0
	m.RunTrace(trace.Quiescent(rng, 10*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		if rec.Observe(tel) {
			flagged++
		}
	})
	if flagged == 0 {
		t.Fatal("SEL not flagged through the recorder")
	}
	records := rec.Records()
	if len(records) != rec.Len() {
		t.Fatalf("Records len %d != Len %d", len(records), rec.Len())
	}
	// Chronological order.
	for i := 1; i < len(records); i++ {
		if records[i].T < records[i-1].T {
			t.Fatal("records out of order")
		}
	}
	// The flagged tail must show residual ≈ the SEL magnitude.
	last := records[len(records)-1]
	if !last.Flagged || last.Residual < 0.05 {
		t.Fatalf("final record %+v, want flagged with ≈0.08 residual", last)
	}
	if !last.Quiescent || last.Predicted == 0 {
		t.Fatalf("final record missing prediction: %+v", last)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	m, det := trainedDetector(t, 33)
	rec := newRecorder(t, det, 50)
	rng := rand.New(rand.NewSource(34))
	n := m.RunTrace(trace.Quiescent(rng, time.Second, time.Second), func(tel machine.Telemetry) {
		rec.Observe(tel)
	})
	if n <= 50 {
		t.Fatalf("trace too short to wrap: %d samples", n)
	}
	if rec.Len() != 50 {
		t.Fatalf("Len = %d, want capacity 50", rec.Len())
	}
	records := rec.Records()
	// Oldest-first after wrap: strictly increasing timestamps ending at
	// the final sample.
	for i := 1; i < len(records); i++ {
		if records[i].T <= records[i-1].T {
			t.Fatal("wrapped records out of order")
		}
	}
}

func TestRecorderDumpCSV(t *testing.T) {
	m, det := trainedDetector(t, 35)
	rec := newRecorder(t, det, 10)
	rng := rand.New(rand.NewSource(36))
	m.RunTrace(trace.Quiescent(rng, 100*time.Millisecond, time.Second), func(tel machine.Telemetry) {
		rec.Observe(tel)
	})
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_ns,current_a,predicted_a,residual_a,quiescent,flagged" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != rec.Len()+1 {
		t.Fatalf("%d lines for %d records", len(lines), rec.Len())
	}
}

// TestRecorderRejectedSampleNotQuiescent pins the flight log to the
// detector's view of a corrupt sample: a finite current with one NaN
// counter rate is rejected by the detector, so the record must not
// claim a quiescent measurement, and its Predicted must stay NaN-free
// (the CSV dump once carried "NaN" there).
func TestRecorderRejectedSampleNotQuiescent(t *testing.T) {
	model := &linmodel.Model{Weights: make([]float64, FeatureDim(1)), Intercept: 1.5}
	det, err := NewDetector(model, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(t, det, 10)
	bad := countBadSamples(det)
	clean := machine.Telemetry{
		T:        time.Millisecond,
		CurrentA: 1.5,
		PerCore:  []machine.CoreTelemetry{{InstrPerSec: 1e6, FreqHz: 6e8, CacheHitRate: 0.9}},
	}
	nanRate := clean
	nanRate.T = 2 * time.Millisecond
	nanRate.PerCore = []machine.CoreTelemetry{{InstrPerSec: 1e6, FreqHz: 6e8, BranchMissRate: math.NaN()}}
	infCurrent := clean
	infCurrent.T = 3 * time.Millisecond
	infCurrent.CurrentA = math.Inf(1)
	for _, tel := range []machine.Telemetry{clean, nanRate, infCurrent} {
		rec.Observe(tel)
	}
	if got := bad.Value(); got != 2 {
		t.Fatalf("detector rejected %d samples, want 2", got)
	}
	records := rec.Records()
	if r := records[0]; !r.Quiescent || r.Predicted != 1.5 {
		t.Fatalf("clean record = %+v, want quiescent with Predicted 1.5", r)
	}
	for _, r := range records[1:] {
		if r.Quiescent || r.Predicted != 0 {
			t.Fatalf("rejected record = %+v, want not quiescent with Predicted 0", r)
		}
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		if field := strings.Split(line, ",")[2]; strings.Contains(field, "NaN") {
			t.Fatalf("dump record %d predicted_a = %q", i, field)
		}
	}
}

func TestRecorderCapacityValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := NewRecorder(nil, capacity); err == nil {
			t.Fatalf("NewRecorder(nil, %d) accepted a non-positive capacity", capacity)
		}
	}
}

func TestAdaptiveInterceptTracksDrift(t *testing.T) {
	// Exaggerated thermal drift (±0.08 A) exceeds the 0.055 A threshold
	// margin: a fixed model false-positives at drift peaks; the adaptive
	// model tracks the drift and stays quiet — yet still catches a real
	// SEL step.
	mkDetector := func(adapt float64, seed int64) (*machine.Machine, *Detector) {
		cfg := machine.DefaultConfig()
		cfg.SensorSeed = seed
		cfg.Power.ThermalDriftA = 0.08
		cfg.Power.ThermalDriftPeriodSec = 120 // fast cycle for test brevity
		m := machine.New(cfg)
		ic := DefaultConfig()
		ic.AdaptRate = adapt
		trainer := NewTrainer(ic)
		rng := rand.New(rand.NewSource(seed))
		m.RunTrace(trace.Quiescent(rng, 10*time.Second, 5*time.Second), func(tel machine.Telemetry) {
			trainer.Add(tel)
		})
		det, err := trainer.Fit()
		if err != nil {
			t.Fatal(err)
		}
		return m, det
	}

	countAlarms := func(adapt float64) int {
		m, det := mkDetector(adapt, 40)
		rng := rand.New(rand.NewSource(41))
		alarms := 0
		m.RunTrace(trace.Quiescent(rng, 4*time.Minute, 15*time.Second), func(tel machine.Telemetry) {
			if det.Observe(tel) {
				alarms++
			}
		})
		return alarms
	}

	fixed := countAlarms(0)
	adaptive := countAlarms(5e-4)
	if fixed == 0 {
		t.Fatal("fixed model produced no drift false-positives; drift too mild for this test")
	}
	if adaptive != 0 {
		t.Fatalf("adaptive model still false-positived %d times", adaptive)
	}

	// The adaptive detector must still catch a real latchup: the step is
	// excluded from adaptation by the |diff| < threshold/2 guard.
	m, det := mkDetector(5e-4, 42)
	rng := rand.New(rand.NewSource(43))
	m.RunTrace(trace.Quiescent(rng, 30*time.Second, 15*time.Second), func(tel machine.Telemetry) {
		det.Observe(tel) // settle adaptation
	})
	m.InjectSEL(0.08)
	detected := false
	m.RunTrace(trace.Quiescent(rng, 20*time.Second, 15*time.Second), func(tel machine.Telemetry) {
		if det.Observe(tel) {
			detected = true
		}
	})
	if !detected {
		t.Fatal("adaptive detector absorbed the SEL step")
	}
}
