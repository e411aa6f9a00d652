package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge's value at snapshot time.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram's full state at snapshot time.
// Buckets[i] counts observations in (Bounds[i-1], Bounds[i]]; the final
// bucket is the overflow past the last bound.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit,omitempty"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically (metrics sorted by name, events by sequence) so two
// identical simulation runs serialize byte-for-byte identically. It
// carries no wall-clock timestamp for the same reason.
type Snapshot struct {
	Counters      []CounterSnapshot   `json:"counters"`
	Gauges        []GaugeSnapshot     `json:"gauges"`
	Histograms    []HistogramSnapshot `json:"histograms"`
	Events        []Event             `json:"events"`
	EventsDropped uint64              `json:"events_dropped"`
}

// Snapshot captures the registry's current state. Nil registries yield
// an empty (but non-nil) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
		Events:     []Event{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	ring := r.events
	r.mu.Unlock()

	// Sort each collected family by name before rendering: the maps
	// iterate in randomized order, and snapshot output is campaign
	// output — two identical runs must serialize byte-identically.
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Unit: c.unit, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Unit: g.unit, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: h.name, Unit: h.unit,
			Count: h.Count(), Sum: h.Sum(),
			Bounds: h.Bounds(), Buckets: h.BucketCounts(),
		})
	}
	s.Events = ring.Events()
	s.EventsDropped = ring.Dropped()
	return s
}

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and serializes it. Works on a nil
// registry (empty snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// Counter returns the named counter's value, or 0 when absent. It is a
// query helper for tests and reports.
func (s *Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value, or 0 when absent.
func (s *Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram snapshot, or nil when absent.
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}
