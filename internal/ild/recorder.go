package ild

import (
	"fmt"
	"io"
	"time"
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

// Recorder is a bounded ring of the Records of every sample its
// detector observes.
type Recorder struct {
	buf  []Record
	head int
	full bool
}

// NewRecorder attaches a ring of the given capacity to det, which from
// then on records every sample it observes. A non-positive capacity is
// a configuration error, returned rather than panicking so a monitor
// restart with a corrupt config degrades to an error path instead of a
// crash loop.
func NewRecorder(det *Detector, capacity int) (*Recorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ild: NewRecorder capacity %d, want > 0", capacity)
	}
	r := &Recorder{buf: make([]Record, capacity)}
	det.rec = r
	return r, nil
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
