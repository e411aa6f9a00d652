package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry(0)
	c := reg.Counter("test_total", "events")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(workers*per); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		obs     []float64
		buckets []uint64 // len(bounds)+1, last = overflow
	}{
		{
			name:    "exact edges are inclusive",
			bounds:  []float64{1, 2, 4},
			obs:     []float64{1, 2, 4},
			buckets: []uint64{1, 1, 1, 0},
		},
		{
			name:    "just past an edge lands in the next bucket",
			bounds:  []float64{1, 2, 4},
			obs:     []float64{1.0001, 2.0001, 4.0001},
			buckets: []uint64{0, 1, 1, 1},
		},
		{
			name:    "below first bound lands in bucket zero",
			bounds:  []float64{1, 2},
			obs:     []float64{0, 0.5, -3},
			buckets: []uint64{3, 0, 0},
		},
		{
			name:    "overflow bucket catches everything past the last bound",
			bounds:  []float64{1},
			obs:     []float64{10, 100, 1e9},
			buckets: []uint64{0, 3},
		},
		{
			name:    "unsorted bounds are sorted at creation",
			bounds:  []float64{4, 1, 2},
			obs:     []float64{0.5, 1.5, 3, 5},
			buckets: []uint64{1, 1, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(0)
			h := reg.Histogram("h_"+tc.name, "units", tc.bounds)
			var sum float64
			for _, v := range tc.obs {
				h.Observe(v)
				sum += v
			}
			got := h.BucketCounts()
			if len(got) != len(tc.buckets) {
				t.Fatalf("bucket count = %d, want %d", len(got), len(tc.buckets))
			}
			for i := range got {
				if got[i] != tc.buckets[i] {
					t.Errorf("bucket[%d] = %d, want %d", i, got[i], tc.buckets[i])
				}
			}
			if h.Count() != uint64(len(tc.obs)) {
				t.Errorf("count = %d, want %d", h.Count(), len(tc.obs))
			}
			if h.Sum() != sum {
				t.Errorf("sum = %v, want %v", h.Sum(), sum)
			}
		})
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry(0)
	h := reg.Histogram("conc_seconds", "seconds", []float64{0.5})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w % 2)) // half in bucket 0, half overflow
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*per); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	b := h.BucketCounts()
	if b[0] != workers/2*per || b[1] != workers/2*per {
		t.Fatalf("buckets = %v, want even split", b)
	}
}

func TestRingOverwrite(t *testing.T) {
	ring := NewRing(3)
	for i := 0; i < 5; i++ {
		ring.Append(Event{Kind: Kind(rune('a' + i))})
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	// Oldest two (seq 0, 1) were overwritten; survivors are 2, 3, 4 in order.
	for i, want := range []uint64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Errorf("event[%d].Seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if kinds := string(evs[0].Kind) + string(evs[1].Kind) + string(evs[2].Kind); kinds != "cde" {
		t.Errorf("surviving kinds = %q, want \"cde\"", kinds)
	}
	if ring.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", ring.Dropped())
	}
}

func TestRingPartiallyFull(t *testing.T) {
	ring := NewRing(8)
	ring.Append(Event{Kind: "x"})
	ring.Append(Event{Kind: "y"})
	evs := ring.Events()
	if len(evs) != 2 || evs[0].Kind != "x" || evs[1].Kind != "y" {
		t.Fatalf("events = %+v, want [x y]", evs)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", ring.Dropped())
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "").Inc()
	reg.Gauge("b", "").Set(3)
	reg.Histogram("c", "", LatencyBuckets()).Observe(1)
	reg.Emit(Event{Kind: KindSELOnset})
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Events) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestRegistryIdempotentLookups(t *testing.T) {
	reg := NewRegistry(0)
	if reg.Counter("same", "") != reg.Counter("same", "") {
		t.Error("Counter lookup is not idempotent")
	}
	if reg.Gauge("g", "") != reg.Gauge("g", "") {
		t.Error("Gauge lookup is not idempotent")
	}
	if reg.Histogram("h", "", []float64{1}) != reg.Histogram("h", "", []float64{9}) {
		t.Error("Histogram lookup is not idempotent")
	}
}

func TestRegistryNameCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-type name collision")
		}
	}()
	reg := NewRegistry(0)
	reg.Counter("dup", "")
	reg.Gauge("dup", "")
}

func TestSnapshotGolden(t *testing.T) {
	reg := NewRegistry(4)
	reg.Counter("ild_detections_total", "detections").Add(3)
	reg.Counter("emr_votes_unanimous_total", "votes").Add(12)
	reg.Gauge("ild_residual_amps", "amps").Set(0.0625)
	reg.Gauge("cache_hit_rate", "ratio").Set(0.75)
	h := reg.Histogram("ild_detection_latency_seconds", "seconds", []float64{1, 10, 60})
	h.Observe(4)
	h.Observe(4)
	h.Observe(90)
	reg.Emit(Event{T: 5 * time.Second, Kind: KindSELOnset, Fields: map[string]any{"amps": 0.07}})
	reg.Emit(Event{T: 9 * time.Second, Kind: KindSELDetect, Fields: map[string]any{"detector": "ild"}})

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot JSON differs from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestSnapshotQueries(t *testing.T) {
	reg := NewRegistry(0)
	reg.Counter("c", "").Add(7)
	reg.Gauge("g", "").Set(2.5)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)
	s := reg.Snapshot()
	if s.Counter("c") != 7 || s.Counter("missing") != 0 {
		t.Errorf("Counter query: got %d / %d", s.Counter("c"), s.Counter("missing"))
	}
	if s.Gauge("g") != 2.5 {
		t.Errorf("Gauge query = %v", s.Gauge("g"))
	}
	if hs := s.Histogram("h"); hs == nil || hs.Count != 1 {
		t.Errorf("Histogram query = %+v", s.Histogram("h"))
	}
	if s.Histogram("missing") != nil {
		t.Error("missing histogram should be nil")
	}
}

func TestEventsMixedWithMetricsUnderRace(t *testing.T) {
	reg := NewRegistry(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("mixed_total", "")
			for i := 0; i < 500; i++ {
				c.Inc()
				reg.Emit(Event{T: time.Duration(i), Kind: KindVoteMismatch})
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Snapshot().Counter("mixed_total"); got != 2000 {
		t.Fatalf("mixed_total = %d, want 2000", got)
	}
}
