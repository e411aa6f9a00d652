package telemetry

import (
	"fmt"
	"sync"
)

// Registry owns a namespace of metrics and one event ring. The zero
// value is not usable — construct with NewRegistry. A nil *Registry is a
// valid "telemetry disabled" sink: every lookup returns a nil handle
// whose methods are no-ops, so components accept a *Registry without
// caring whether observability is on.
//
// Metric lookups are idempotent: asking twice for the same name returns
// the same handle, so independent components may share counters (e.g.
// several experiments all bump ild_detections_total). Asking for a name
// that already exists as a different metric type panics — that is a
// programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *Ring
}

// DefaultEventCap is the event-ring capacity NewRegistry uses.
const DefaultEventCap = 1024

// NewRegistry returns an empty registry whose event ring holds eventCap
// entries (DefaultEventCap when eventCap <= 0).
func NewRegistry(eventCap int) *Registry {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   NewRing(eventCap),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, unit string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{name: name, unit: unit}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, unit string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{name: name, unit: unit}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use. Later calls ignore bounds
// and return the existing layout. Returns nil on a nil registry.
func (r *Registry) Histogram(name, unit string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := newHistogram(name, unit, bounds)
	r.hists[name] = h
	return h
}

// Emit appends an event to the ring. No-op on a nil registry.
func (r *Registry) Emit(ev Event) {
	if r == nil {
		return
	}
	r.events.Append(ev)
}

// checkFreeLocked panics when name is already taken by another metric
// type. r.mu must be held.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		//radlint:allow nopanic a metric name/type collision is a registration-time programming error
		panic(fmt.Sprintf("telemetry: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		//radlint:allow nopanic a metric name/type collision is a registration-time programming error
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		//radlint:allow nopanic a metric name/type collision is a registration-time programming error
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram, requested as %s", name, kind))
	}
}
