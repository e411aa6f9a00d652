package telemetry_test

import (
	"fmt"
	"os"
	"time"

	"radshield/internal/telemetry"
)

// ExampleRegistry shows the full lifecycle: create a registry, record
// the three instrument kinds, and query a snapshot.
func ExampleRegistry() {
	reg := telemetry.NewRegistry(16)

	detections := reg.Counter("ild_detections_total", "detections")
	detections.Inc()
	detections.Inc()

	reg.Gauge("ild_residual_amps", "amps").Set(0.058)

	latency := reg.Histogram("ild_detection_latency_seconds", "seconds",
		telemetry.LatencyBuckets())
	latency.Observe(4.2)
	latency.Observe(11.0)

	s := reg.Snapshot()
	fmt.Println("detections:", s.Counter("ild_detections_total"))
	fmt.Println("residual:", s.Gauge("ild_residual_amps"))
	fmt.Println("latency samples:", s.Histogram("ild_detection_latency_seconds").Count)
	// Output:
	// detections: 2
	// residual: 0.058
	// latency samples: 2
}

// ExampleRegistry_disabled shows the nil-registry convention: components
// accept a *Registry and instrument unconditionally; with telemetry off
// every operation is a cheap no-op.
func ExampleRegistry_disabled() {
	var reg *telemetry.Registry // telemetry disabled

	c := reg.Counter("emr_votes_failed_total", "votes") // c is nil
	c.Inc()                                             // safe no-op
	reg.Emit(telemetry.Event{Kind: telemetry.KindVoteMismatch})

	fmt.Println("value:", c.Value())
	fmt.Println("events:", len(reg.Snapshot().Events))
	// Output:
	// value: 0
	// events: 0
}

// ExampleRing demonstrates flight-recorder semantics: a full ring
// overwrites its oldest entries, keeping the window that ends at the
// most recent anomaly.
func ExampleRing() {
	ring := telemetry.NewRing(2)
	ring.Append(telemetry.Event{T: 1 * time.Second, Kind: telemetry.KindSELOnset})
	ring.Append(telemetry.Event{T: 2 * time.Second, Kind: telemetry.KindSELDetect})
	ring.Append(telemetry.Event{T: 3 * time.Second, Kind: telemetry.KindSELClear})

	for _, ev := range ring.Events() {
		fmt.Println(ev.T, ev.Kind)
	}
	fmt.Println("dropped:", ring.Dropped())
	// Output:
	// 2s sel_detect
	// 3s sel_clear
	// dropped: 1
}

// ExampleSnapshot_writeJSON renders the deterministic JSON document the
// radbench -telemetry flag writes at exit.
func ExampleSnapshot_writeJSON() {
	reg := telemetry.NewRegistry(4)
	reg.Counter("machine_power_cycles_total", "cycles").Inc()

	if err := reg.WriteJSON(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// {
	//   "counters": [
	//     {
	//       "name": "machine_power_cycles_total",
	//       "unit": "cycles",
	//       "value": 1
	//     }
	//   ],
	//   "gauges": [],
	//   "histograms": [],
	//   "events": [],
	//   "events_dropped": 0
	// }
}
