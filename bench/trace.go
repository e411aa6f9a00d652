package main

import (
	"math/bits"
	"time"
)

// Tracing records spans from the benchmark's own files, around its calls
// into each layer; the program itself is not instrumented. Spans are
// held in memory and written out when the run ends.

// span is one timed call. Offsets are seconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the causing span, -1 at the root
	Run    int     `json:"run"`    // workload run (pass or replay) the span belongs to
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer collects spans. A nil tracer records nothing, so untraced
// passes share the traced code path.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
}

func newTracer(run int) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run, Start: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// spanSelf is a span's duration minus the part its children cover.
// Children of one parent run one after another, so their durations add.
func spanSelf(spans []span, id int) float64 {
	self := spans[id].End - spans[id].Start
	for _, s := range spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// histBuckets is the size of aggSpan's log2 histogram: bucket i counts
// calls of [2^(i-1), 2^i) ns, which spans 1 ns to about 2 s.
const histBuckets = 32

// aggSpan stands for the many short calls of one kind made inside a
// coarse span, which would be too many to keep one by one. The calls
// contain no timed calls of their own, so all their time is self time.
type aggSpan struct {
	Name   string             `json:"name"`
	Parent string             `json:"parent"`
	Count  int64              `json:"count"`
	Self   int64              `json:"self_ns"`
	Hist   [histBuckets]int64 `json:"log2_ns_hist"`
	values []int64            // kept for exact percentiles
}

func (a *aggSpan) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	a.Count++
	a.Self += ns
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.Hist[b]++
	a.values = append(a.values, ns)
}

// mean returns the mean call duration in ns, 0 when nothing was timed.
func (a *aggSpan) mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Count)
}
