package ild

import (
	"time"

	"radshield/internal/telemetry"
)

// Instruments bundles ILD's metric handles. Construct with
// NewInstruments and attach to a Detector (SetInstruments) and a
// BubblePolicy; a nil *Instruments disables instrumentation at the cost
// of one nil check per sample. TELEMETRY.md documents every name.
type Instruments struct {
	reg *telemetry.Registry

	// Samples counts every telemetry sample the detector observed.
	Samples *telemetry.Counter
	// QuiescentSamples counts samples that passed the quiescence gate —
	// the detection opportunities of paper §3.1.
	QuiescentSamples *telemetry.Counter
	// WindowResets counts busy samples that cleared the averaging window.
	WindowResets *telemetry.Counter
	// Detections counts rising-edge SEL declarations.
	Detections *telemetry.Counter
	// BubblesInjected counts quiescent bubbles spliced into traces.
	BubblesInjected *telemetry.Counter
	// Residual tracks the running-average (measured − predicted) current.
	Residual *telemetry.Gauge
	// DetectionLatency is the SEL-onset→first-flag distribution (paper
	// Table 2's latency columns); experiment harnesses observe it since
	// only they know the onset instant.
	DetectionLatency *telemetry.Histogram
	// FalseTrips counts detector firings outside any SEL episode (the
	// numerator of Table 2's false-positive rate).
	FalseTrips *telemetry.Counter
	// BadSamples counts telemetry samples rejected as NaN/Inf before
	// they could reach the rolling window or model.
	BadSamples *telemetry.Counter
}

// NewInstruments registers the ILD metric set on reg. A nil registry
// yields nil (instrumentation disabled).
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		reg:              reg,
		Samples:          reg.Counter("ild_samples_total", "samples"),
		QuiescentSamples: reg.Counter("ild_quiescent_samples_total", "samples"),
		WindowResets:     reg.Counter("ild_window_resets_total", "resets"),
		Detections:       reg.Counter("ild_detections_total", "detections"),
		BubblesInjected:  reg.Counter("ild_bubbles_injected_total", "bubbles"),
		Residual:         reg.Gauge("ild_residual_amps", "amps"),
		DetectionLatency: reg.Histogram("ild_detection_latency_seconds", "seconds", telemetry.LatencyBuckets()),
		FalseTrips:       reg.Counter("ild_false_trips_total", "samples"),
		BadSamples:       reg.Counter("ild_bad_samples_total", "samples"),
	}
}

// badSample records one rejected NaN/Inf telemetry sample.
func (ins *Instruments) badSample(t time.Duration, reason string) {
	if ins == nil {
		return
	}
	ins.BadSamples.Inc()
	ins.reg.Emit(telemetry.Event{
		T:      t,
		Kind:   telemetry.KindBadSample,
		Fields: map[string]any{"reason": reason},
	})
}

// observe records one detector decision. fired is the rising-edge
// detection signal (not the raw per-sample flag).
func (ins *Instruments) observe(t time.Duration, quiescent bool, residual float64, fired bool) {
	if ins == nil {
		return
	}
	ins.Samples.Inc()
	if !quiescent {
		ins.WindowResets.Inc()
		return
	}
	ins.QuiescentSamples.Inc()
	ins.Residual.Set(residual)
	if fired {
		ins.Detections.Inc()
		ins.reg.Emit(telemetry.Event{
			T:    t,
			Kind: telemetry.KindSELDetect,
			Fields: map[string]any{
				"detector":   "ild",
				"residual_a": residual,
			},
		})
	}
}

// bubble records one injected quiescence bubble at trace offset t.
func (ins *Instruments) bubble(t, length time.Duration) {
	if ins == nil {
		return
	}
	ins.BubblesInjected.Inc()
	ins.reg.Emit(telemetry.Event{
		T:      t,
		Kind:   telemetry.KindBubbleInjected,
		Fields: map[string]any{"len_s": length.Seconds()},
	})
}

// ObserveLatency records one detection latency (harnesses call this at
// the episode bookkeeping point where onset time is known).
func (ins *Instruments) ObserveLatency(latency time.Duration) {
	if ins == nil {
		return
	}
	ins.DetectionLatency.Observe(latency.Seconds())
}

// CountFalseTrip records one firing outside any SEL episode.
func (ins *Instruments) CountFalseTrip() {
	if ins == nil {
		return
	}
	ins.FalseTrips.Inc()
}
