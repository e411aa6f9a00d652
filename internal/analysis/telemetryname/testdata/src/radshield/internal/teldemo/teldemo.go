// Package teldemo is a telemetryname fixture exercising the
// TELEMETRY.md naming contract against the real registry type.
package teldemo

import "radshield/internal/telemetry"

// goodName is a compile-time constant, so it passes even through a
// variable-free indirection.
const goodName = "demo_requests_total"

// Register exercises conformant and non-conformant names.
func Register(reg *telemetry.Registry, kind string) {
	reg.Counter("demo_hits_total", "hits")
	reg.Counter(goodName, "requests")
	reg.Counter("demo_"+"joined_total", "joins") // constant folding is fine
	reg.Gauge("demo_current_amps", "amps")
	reg.Histogram("demo_latency_seconds", "seconds", telemetry.LatencyBuckets())

	reg.Counter("DemoHits", "hits")            // want `metric name "DemoHits" violates the TELEMETRY\.md convention`
	reg.Counter("demo.dotted.total", "hits")   // want `metric name "demo\.dotted\.total" violates the TELEMETRY\.md convention`
	reg.Gauge("demo__double", "x")             // want `metric name "demo__double" violates the TELEMETRY\.md convention`
	reg.Counter("demo_"+kind+"_total", "hits") // want `dynamic metric name passed to Registry\.Counter`
	reg.Gauge(kind, "x")                       // want `dynamic metric name passed to Registry\.Gauge`
}

// lookalike has methods shadowing the registry's names; they are not
// the telemetry registry, so nothing here is checked.
type lookalike struct{}

func (lookalike) Counter(name, unit string) {}

// NotTheRegistry proves the analyzer matches on the receiver type, not
// the method name.
func NotTheRegistry(kind string) {
	var l lookalike
	l.Counter(kind, "x")
	l.Counter("Whatever.Goes", "x")
}
