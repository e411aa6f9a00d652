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
	"radshield/internal/power"
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
		if det.Observe(tel) {
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
		det.Observe(tel)
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
		det.Observe(tel)
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
		det.Observe(tel)
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

// refRecorder is the flight log in the form it had as a wrapper around
// its detector, kept as the oracle for the detector that records
// itself: around the detector's own Observe it recomputes the sample's
// quiescence and prediction, and it reads the residual afterwards.
type refRecorder struct {
	det  *Detector
	feat []float64
}

func (r *refRecorder) observe(tel machine.Telemetry) (bool, Record) {
	quiescent := badSampleReason(tel) == "" && r.det.Quiescent(tel)
	var predicted float64
	if quiescent {
		r.feat = AppendFeatures(r.feat[:0], tel)
		predicted = r.det.model.Predict(r.feat)
	}
	flagged := r.det.Observe(tel)
	return flagged, Record{
		T:         tel.T,
		CurrentA:  tel.CurrentA,
		Predicted: predicted,
		Residual:  r.det.Residual(),
		Quiescent: quiescent,
		Flagged:   flagged,
	}
}

// TestRecorderMatchesWrappingReference flies a latchup, sensor
// dropout and garbage (NaN, negative and huge samples) and busy
// stretches past two detectors on one model: one with a Recorder
// attached, one wrapped by refRecorder. Every Observe must return the
// same, and every record the attached ring holds must equal the
// oracle's, bit for bit.
func TestRecorderMatchesWrappingReference(t *testing.T) {
	m, base := trainedDetector(t, 61)
	recorded, err := NewDetector(base.Model(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewDetector(base.Model(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := &refRecorder{det: plain}
	start := m.Now()
	for _, f := range []power.SensorFault{
		{Kind: power.FaultDropout, Start: start + 15*time.Second, Duration: 2 * time.Second},
		{Kind: power.FaultGarbage, Start: start + 25*time.Second, Duration: 2 * time.Second},
	} {
		if err := m.Sensor().ScheduleFault(f); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(62))
	tr := trace.Quiescent(rng, 20*time.Second, 6*time.Second)
	tr.Append(trace.Burst(rng, 3*time.Second, 4).Segments...)
	tr.Append(trace.Quiescent(rng, 20*time.Second, 6*time.Second).Segments...)
	rec := newRecorder(t, recorded, 100000)
	var want []Record
	struck := false
	nan, busy, flagged := 0, 0, 0
	m.RunTrace(tr, func(tel machine.Telemetry) {
		if !struck && tel.T >= start+5*time.Second {
			struck = true
			if err := m.InjectSEL(0.08); err != nil {
				t.Fatal(err)
			}
		}
		got := recorded.Observe(tel)
		ref, r := oracle.observe(tel)
		if got != ref {
			t.Fatalf("at %v: recording detector Observe = %v, wrapped one %v", tel.T, got, ref)
		}
		want = append(want, r)
		switch {
		case math.IsNaN(tel.CurrentA):
			nan++
		case !r.Quiescent:
			busy++
		}
		if got {
			flagged++
			m.PowerCycle()
			recorded.Reset()
			plain.Reset()
		}
	})
	if nan == 0 || busy == 0 || flagged == 0 {
		t.Fatalf("flight saw %d NaN, %d busy and %d flagged samples, want each > 0", nan, busy, flagged)
	}
	records := rec.Records()
	if len(records) != len(want) {
		t.Fatalf("ring holds %d records, want %d", len(records), len(want))
	}
	bits := math.Float64bits
	for i, g := range records {
		w := want[i]
		if g.T != w.T || bits(g.CurrentA) != bits(w.CurrentA) || bits(g.Predicted) != bits(w.Predicted) ||
			bits(g.Residual) != bits(w.Residual) || g.Quiescent != w.Quiescent || g.Flagged != w.Flagged {
			t.Fatalf("record %d = %+v, reference %+v", i, g, w)
		}
	}
}
