// Package ild implements the Idle Latchup Detector, Radshield's white-box
// SEL mitigation (paper §3.1), together with the black-box baselines it
// is evaluated against (static current thresholds and a current-only
// random forest, paper §4.1.2).
//
// ILD's pipeline:
//
//	telemetry (counters + current) → quiescence gate → linear model
//	predicts expected current → running-average of (measured − predicted)
//	over 3 s → flag SEL when the average exceeds 0.055 A → power cycle.
//
// During long workloads, quiescent "bubbles" are injected so detection
// opportunities exist at least once per pause period (worst case 2 %
// runtime overhead).
//
// Key types: Trainer fits the linear current model on ground-twin
// telemetry and Fit returns a Detector; Detector.Observe consumes one
// machine.Telemetry sample and reports whether an SEL is declared;
// BubblePolicy injects measurement bubbles into a trace
// (InjectBubbles) and bounds the overhead (WorstCaseOverheadPerHour);
// ForestDetector and StaticThreshold are the Table 2 baselines behind
// the shared Monitor interface; Detector.SetThreshold retunes a
// detector when an adaptive posture moves; a Recorder attached to a
// Detector (NewRecorder) keeps the fine-grained flight ring cmd/ildmon
// dumps, written by the detector's own Observe.
//
// Invariants: the detector only accumulates residuals while the
// quiescence gate holds — busy samples reset the averaging window, so a
// declaration always reflects SustainFor of sustained quiescent excess;
// the ground-trained model is fixed, and a detector only reads it;
// Observe is deterministic for a given telemetry stream, and its
// products that feed a sum are converted explicitly (float64(x*y)), so
// no compiler fuses them into a multiply-add (DESIGN.md §9).
// Instruments (NewInstruments, Detector.SetInstruments,
// BubblePolicy.Instruments) attach the ild_* metrics of TELEMETRY.md;
// a nil *Instruments disables all of it at one branch of cost.
package ild
