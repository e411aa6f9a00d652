package ild

import (
	"fmt"
	"io"
	"time"

	"radshield/internal/machine"
)

// Record is one entry of ILD's fine-grained telemetry log. The paper's
// deployment section (§5) motivates it: after a commodity computer
// burns out, this log is what lets ground operators "definitively trace
// a potential issue to a SEL".
type Record struct {
	T         time.Duration
	CurrentA  float64 // filtered measurement
	Predicted float64 // model output (NaN-free: 0 when not quiescent)
	Residual  float64 // running-average measured − predicted
	Quiescent bool
	Flagged   bool
}

// Recorder wraps a Detector, capturing a bounded ring of Records around
// every observation. It satisfies Monitor, so it drops in anywhere a
// Detector does.
type Recorder struct {
	det  *Detector
	buf  []Record
	head int
	full bool
	feat []float64 // feature scratch for Predicted, reused every sample
}

var _ Monitor = (*Recorder)(nil)

// NewRecorder wraps det with a ring of the given capacity. A
// non-positive capacity is a configuration error, returned rather than
// panicking so a monitor restart with a corrupt config degrades to an
// error path instead of a crash loop.
func NewRecorder(det *Detector, capacity int) (*Recorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ild: NewRecorder capacity %d, want > 0", capacity)
	}
	return &Recorder{det: det, buf: make([]Record, capacity)}, nil
}

// Residual and Reset forward to the wrapped detector, so a Recorder
// also drops in where a caller restarts the detector after a power
// cycle.
func (r *Recorder) Residual() float64 { return r.det.Residual() }
func (r *Recorder) Reset()            { r.det.Reset() }

// Observe implements Monitor: it forwards to the detector and records
// the observation. A sample the detector rejects as NaN/Inf is recorded
// as not quiescent, with no prediction: the detector never measured it.
func (r *Recorder) Observe(tel machine.Telemetry) bool {
	quiescent := badSampleReason(tel) == "" && r.det.Quiescent(tel)
	var predicted float64
	if quiescent {
		r.feat = AppendFeatures(r.feat[:0], tel)
		predicted = r.det.model.Predict(r.feat)
	}
	flagged := r.det.Observe(tel)
	r.push(Record{
		T:         tel.T,
		CurrentA:  tel.CurrentA,
		Predicted: predicted,
		Residual:  r.det.Residual(),
		Quiescent: quiescent,
		Flagged:   flagged,
	})
	return flagged
}

func (r *Recorder) push(rec Record) {
	r.buf[r.head] = rec
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
		r.full = true
	}
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.head
}

// Records returns the held records oldest-first.
func (r *Recorder) Records() []Record {
	if !r.full {
		return append([]Record(nil), r.buf[:r.head]...)
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Dump writes the log as a downlink-friendly CSV to w.
func (r *Recorder) Dump(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_ns,current_a,predicted_a,residual_a,quiescent,flagged"); err != nil {
		return err
	}
	for _, rec := range r.Records() {
		if _, err := fmt.Fprintf(w, "%d,%.5f,%.5f,%.5f,%t,%t\n",
			rec.T.Nanoseconds(), rec.CurrentA, rec.Predicted, rec.Residual,
			rec.Quiescent, rec.Flagged); err != nil {
			return err
		}
	}
	return nil
}
