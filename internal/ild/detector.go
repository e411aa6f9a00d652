package ild

import (
	"fmt"
	"math"
	"time"

	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/stats"
)

// Config holds ILD's tuning parameters. Defaults are the paper's
// experimentally-determined values.
type Config struct {
	// ThresholdA flags an SEL when the running-average difference between
	// measured and predicted current exceeds it (paper: 0.055 A, swept
	// over 0.04–0.08 A in 0.005 A increments).
	ThresholdA float64
	// SustainFor is how long the excess must persist (paper: 3 s).
	SustainFor time.Duration
	// SampleEvery is the telemetry cadence, used to size the averaging
	// window (paper: 1 ms).
	SampleEvery time.Duration
	// QuiescentInstrPerSec is the CPU-load gate: the system counts as
	// quiescent when the summed instruction rate is below it. Housekeeping
	// tasks sit well below, payload workloads well above.
	QuiescentInstrPerSec float64
	// DetectionWindow is the required detection latency (paper: 3 min,
	// against a ~5 min thermal damage horizon).
	DetectionWindow time.Duration
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		ThresholdA:           0.055,
		SustainFor:           3 * time.Second,
		SampleEvery:          time.Millisecond,
		QuiescentInstrPerSec: 3e8,
		DetectionWindow:      3 * time.Minute,
	}
}

// Detector is a trained ILD instance. Feed it telemetry samples in
// order; it reports when an SEL should be declared.
type Detector struct {
	cfg    Config
	model  *linmodel.Model
	window *stats.WindowMean
	// ins receives per-decision metrics when attached; firing tracks the
	// declared state so only rising edges count as new detections.
	ins    *Instruments
	firing bool
	// rec, when attached (NewRecorder), logs every observed sample.
	rec *Recorder
	// feat is the reusable feature-vector scratch buffer; Observe runs
	// once per telemetry sample for entire missions, so it must not
	// allocate (see the allocation-regression tests in alloc_test.go).
	feat []float64
}

// SetInstruments attaches telemetry instruments (nil detaches them).
func (d *Detector) SetInstruments(ins *Instruments) { d.ins = ins }

// NewDetector builds a detector from a trained current model, which it
// only reads, so detectors may share one. The config must use the same
// telemetry cadence the model was trained at. Config validation
// failures are returned as errors: detector construction happens on
// orbit after retraining, where a bad config (possibly from an upset
// parameter store) must be rejected, not crash the monitor.
func NewDetector(model *linmodel.Model, cfg Config) (*Detector, error) {
	if err := checkThreshold(cfg.ThresholdA); err != nil {
		return nil, err
	}
	if cfg.SustainFor <= 0 || cfg.SampleEvery <= 0 {
		return nil, fmt.Errorf("ild: SustainFor = %v and SampleEvery = %v must be positive", cfg.SustainFor, cfg.SampleEvery)
	}
	n := int(cfg.SustainFor / cfg.SampleEvery)
	if n < 1 {
		n = 1
	}
	return &Detector{cfg: cfg, model: model, window: stats.NewWindowMean(n)}, nil
}

// SetThreshold retunes the detector to declare an SEL above a amps and
// restarts it clean, as Reset does: the move an adaptive protection
// posture makes. A threshold not above 0 is rejected and leaves the
// detector as it was.
func (d *Detector) SetThreshold(a float64) error {
	if err := checkThreshold(a); err != nil {
		return err
	}
	d.cfg.ThresholdA = a
	d.Reset()
	return nil
}

// checkThreshold rejects a detection threshold not above 0, NaN
// included: a detector at such a threshold would fire on every full
// window, or never.
func checkThreshold(a float64) error {
	if !(a > 0) {
		return fmt.Errorf("ild: ThresholdA = %v, want > 0", a)
	}
	return nil
}

// Model exposes the fitted current model (telemetry downlink includes
// its coefficients; ablations rebuild detectors around it).
func (d *Detector) Model() *linmodel.Model { return d.model }

// Quiescent reports whether the sample shows a quiescent system — the
// only state ILD trusts for detection (paper: workload current variance
// is two orders of magnitude above a micro-SEL).
func (d *Detector) Quiescent(tel machine.Telemetry) bool {
	return tel.TotalInstrPerSec() < d.cfg.QuiescentInstrPerSec
}

// finite reports whether v is a usable measurement.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// badSampleReason classifies an unusable telemetry sample: a NaN/Inf
// filtered current reading ("current") or a NaN/Inf counter-derived
// feature ("features"). It returns "" for a clean sample. Only the
// values the detector actually consumes are checked.
//
// It runs on every sample, so it first sums v*0 over those values in one
// pass: v*0 is ±0 for a finite v and NaN for NaN or ±Inf, so the sum is
// zero exactly when every value is finite. Only a rejected sample pays
// for the per-field classification.
func badSampleReason(tel machine.Telemetry) string {
	z := float64(tel.CurrentA*0) + float64(tel.DiskReadPerSec*0) + float64(tel.DiskWritePerSec*0)
	for _, c := range tel.PerCore {
		z += float64(c.InstrPerSec*0) + float64(c.BusCyclesPerSec*0) + float64(c.FreqHz*0) +
			float64(c.BranchMissRate*0) + float64(c.CacheHitRate*0)
	}
	if z == 0 {
		return ""
	}
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

// Observe consumes one telemetry sample and reports whether an SEL is
// declared at this instant. Non-quiescent samples reset the averaging
// window: measurements taken under load are never used. Samples
// carrying NaN/Inf current or features are rejected outright (counted
// as ild_bad_samples_total) without touching the averaging window — a
// corrupt reading carries no information either way, and a single NaN
// folded into a running mean would wedge the detector permanently. An
// attached Recorder logs the sample with the window as it leaves it; a
// rejected or busy sample is logged as not quiescent, with no
// prediction.
func (d *Detector) Observe(tel machine.Telemetry) bool {
	var predicted float64
	quiescent, declared := false, false
	if reason := badSampleReason(tel); reason != "" {
		d.ins.badSample(tel.T, reason)
	} else if !d.Quiescent(tel) {
		d.window.Reset()
		d.firing = false
		d.ins.observe(tel.T, false, 0, false)
	} else {
		quiescent = true
		d.feat = AppendFeatures(d.feat[:0], tel)
		predicted = d.model.Predict(d.feat)
		d.window.Add(tel.CurrentA - predicted)
		declared = d.window.Full() && d.window.Mean() > d.cfg.ThresholdA
		d.ins.observe(tel.T, true, d.window.Mean(), declared && !d.firing)
		d.firing = declared
	}
	if d.rec != nil {
		d.rec.push(Record{T: tel.T, CurrentA: tel.CurrentA, Predicted: predicted,
			Residual: d.window.Mean(), Quiescent: quiescent, Flagged: declared})
	}
	return declared
}

// Residual returns the current running-average difference (measured −
// predicted); useful for telemetry downlink and debugging.
func (d *Detector) Residual() float64 { return d.window.Mean() }

// Reset clears the averaging window (used after a power cycle).
func (d *Detector) Reset() {
	d.window.Reset()
	d.firing = false
}

// Trainer accumulates quiescent training samples and fits the linear
// model. Satellite operators run this on the ground twin before launch
// (paper §3.1, "training a model to detect SELs").
type Trainer struct {
	cfg Config
	// rows holds the samples' feature vectors back to back, width values
	// each, so Add appends into one slice instead of allocating a row per
	// sample. mixed records a sample whose core count differed from the
	// first one's; Fit refuses such a training set.
	rows  []float64
	width int
	mixed bool
	y     []float64
}

// NewTrainer returns a Trainer with the given config.
func NewTrainer(cfg Config) *Trainer { return &Trainer{cfg: cfg} }

// Add records one telemetry sample if it is quiescent and finite; it
// reports whether the sample was used. NaN/Inf samples are rejected —
// one NaN row makes the normal equations unsolvable.
func (t *Trainer) Add(tel machine.Telemetry) bool {
	if badSampleReason(tel) != "" {
		return false
	}
	if tel.TotalInstrPerSec() >= t.cfg.QuiescentInstrPerSec {
		return false
	}
	if w := FeatureDim(len(tel.PerCore)); t.width == 0 {
		t.width = w
	} else if w != t.width {
		t.mixed = true
		return false
	}
	t.rows = AppendFeatures(t.rows, tel)
	t.y = append(t.y, tel.CurrentA)
	return true
}

// Fit trains the current model. A small ridge keeps the system solvable
// when some counters are constant during quiescence (e.g. idle cores
// pinned to the same frequency).
func (t *Trainer) Fit() (*Detector, error) {
	if len(t.y) == 0 {
		return nil, fmt.Errorf("ild: no quiescent training samples collected")
	}
	if t.mixed {
		return nil, fmt.Errorf("ild: training samples mix core counts")
	}
	X := make([][]float64, len(t.y))
	for i := range X {
		X[i] = t.rows[i*t.width : (i+1)*t.width : (i+1)*t.width]
	}
	model, err := linmodel.Fit(X, t.y, 1e-6)
	if err != nil {
		return nil, fmt.Errorf("ild: training failed: %w", err)
	}
	return NewDetector(model, t.cfg)
}
