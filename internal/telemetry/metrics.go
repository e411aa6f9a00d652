package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. All methods are
// safe for concurrent use and are no-ops on a nil receiver, so
// instrumented code never needs to guard against a missing registry:
//
//	var ins *telemetry.Counter // nil when telemetry is disabled
//	ins.Inc()                  // costs one nil check
type Counter struct {
	name string
	unit string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the metric name ("" on a nil receiver).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a float64 metric that can move in both directions (residual
// currents, resident line counts). Safe for concurrent use; no-op on a
// nil receiver.
type Gauge struct {
	name string
	unit string
	bits atomic.Uint64 // math.Float64bits representation
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current reading (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the metric name ("" on a nil receiver).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram is a fixed-layout bucketed distribution. Bounds are the
// inclusive upper edges of each bucket; one overflow bucket (+Inf) is
// always appended. Observations update atomic bucket counters, an atomic
// count, and an atomic sum, so the hot path takes no locks — the <2%
// instrumentation budget on the EMR benchmarks comes from here.
//
// Snapshots taken mid-observation may see a count that is ahead of the
// sum by a few in-flight samples; within one simulation thread (the
// experiments, driven by simulated time) snapshots are exact and
// deterministic.
type Histogram struct {
	name    string
	unit    string
	bounds  []float64 // sorted upper edges, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(name, unit string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{name: name, unit: unit, bounds: b}
	h.buckets = make([]atomic.Uint64, len(b)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s finds the first bound >= v would insert before;
	// bucket i covers (bounds[i-1], bounds[i]].
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Name returns the metric name ("" on a nil receiver).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Bounds returns a copy of the bucket upper edges (without the implicit
// +Inf overflow bucket).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket counts; the final entry is the
// overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// LatencyBuckets is the standard layout for detection latencies and
// virtual runtimes, in seconds: 1 ms to ~17 min in roughly 2× steps,
// sized so the paper's 3-minute SEL detection window lands mid-range.
func LatencyBuckets() []float64 {
	return []float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
		1, 2, 5, 10, 20, 30, 60, 120, 180, 300, 600, 1000,
	}
}
