// Package teldocdemo is the telemetrydoc fixture: registry metrics
// that are (and are not) documented in the fixture TELEMETRY.md.
package teldocdemo

import "radshield/internal/telemetry"

const latencyMetric = "teldoc_latency_ms"

// Wire registers one metric per constructor. Documented names are
// clean; the undocumented ones are flagged at the name argument.
func Wire(reg *telemetry.Registry) {
	reg.Counter("teldoc_documented_total", "events")
	reg.Gauge("teldoc_level", "ratio")
	reg.Histogram(latencyMetric, "ms", []float64{1, 10, 100})

	reg.Counter("teldoc_missing_total", "events") // want `metric "teldoc_missing_total" is not documented in TELEMETRY\.md`
	reg.Gauge("teldoc_ghost", "ratio")            // want `metric "teldoc_ghost" is not documented in TELEMETRY\.md`
}

// WireDynamic builds the name at run time: that is telemetryname's
// finding, not ours, so telemetrydoc stays silent.
func WireDynamic(reg *telemetry.Registry, suffix string) {
	reg.Counter("teldoc_"+suffix, "events") //radlint:allow telemetryname fixture exercises the dynamic-name path
}
