package guard

import (
	"fmt"
	"math"
	"time"

	"radshield/internal/machine"
)

// Mode is ILD's position on the guard degradation ladder. Lower values
// are more capable; demotion moves down the list one rung at a time.
type Mode int

const (
	// ModeLinearModel: full ILD — linear current model, residual
	// threshold, quiescence gating (the paper's detector).
	ModeLinearModel Mode = iota
	// ModeStaticThreshold: the sensor is still read but only compared
	// against a fixed level (paper §2.1's classic protection) — no model
	// features needed, so corrupt performance-counter reads cannot
	// blind it.
	ModeStaticThreshold
	// ModeHardwareTrip: the digital sensor path is not trusted at all;
	// only the supply's analog over-current comparator protects the
	// board, backstopped by the Supervisor's blind power cycles.
	ModeHardwareTrip
)

// String names the mode as it appears in telemetry fields.
func (m Mode) String() string {
	switch m {
	case ModeLinearModel:
		return "linear_model"
	case ModeStaticThreshold:
		return "static_threshold"
	case ModeHardwareTrip:
		return "hardware_trip"
	default:
		return "unknown"
	}
}

// HealthConfig tunes the per-sample sensor-health checks.
type HealthConfig struct {
	// MinPlausibleA / MaxPlausibleA bound readings a real board could
	// produce; anything outside (garbage ADC values, negative currents)
	// is an instant bad sample. The bounds must clear legitimate
	// transient spikes, which exceed the supply-trip level.
	MinPlausibleA float64
	MaxPlausibleA float64
	// StuckAfter flags the sensor after this many consecutive
	// bit-identical raw readings. Real readings carry ADC noise and
	// essentially never repeat exactly; a frozen register repeats
	// forever.
	StuckAfter int
	// MaxSampleGap flags staleness when consecutive samples are farther
	// apart than this (a wedged telemetry path). Zero disables the gap
	// check; non-advancing timestamps are always flagged.
	MaxSampleGap time.Duration
}

// DefaultHealthConfig returns bounds sized for the simulated board:
// quiescent draw ~1.55 A, workload draw a few amps, transient spikes to
// several amps, 1 ms telemetry cadence.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		MinPlausibleA: 0.05,
		MaxPlausibleA: 50,
		StuckAfter:    50,
		MaxSampleGap:  20 * time.Millisecond,
	}
}

// Verdict is one sample's health classification.
type Verdict struct {
	OK bool
	// Reason is "" when OK, else one of "nan", "range", "stuck",
	// "stale".
	Reason string
}

// SensorHealth classifies current-sensor samples as usable or not. It
// is purely observational — feed it every telemetry sample in order;
// the Supervisor turns its verdicts into ladder moves.
type SensorHealth struct {
	cfg HealthConfig

	lastT   time.Duration
	haveT   bool
	lastRaw float64
	haveRaw bool
	run     int // consecutive bit-identical raw readings
}

// NewSensorHealth validates cfg and returns a monitor.
func NewSensorHealth(cfg HealthConfig) (*SensorHealth, error) {
	if cfg.MinPlausibleA < 0 || cfg.MaxPlausibleA <= cfg.MinPlausibleA {
		return nil, fmt.Errorf("guard: plausible range [%v, %v] invalid", cfg.MinPlausibleA, cfg.MaxPlausibleA)
	}
	if cfg.StuckAfter < 2 {
		return nil, fmt.Errorf("guard: StuckAfter = %d, want ≥ 2", cfg.StuckAfter)
	}
	if cfg.MaxSampleGap < 0 {
		return nil, fmt.Errorf("guard: MaxSampleGap = %v, want ≥ 0", cfg.MaxSampleGap)
	}
	return &SensorHealth{cfg: cfg}, nil
}

// Observe classifies one telemetry sample. Checks run in order of
// certainty: staleness (the stream itself is wedged), non-finite
// readings, implausible range, then the stuck-at run length.
func (h *SensorHealth) Observe(tel machine.Telemetry) Verdict {
	if h.haveT {
		gap := tel.T - h.lastT
		if gap <= 0 || (h.cfg.MaxSampleGap > 0 && gap > h.cfg.MaxSampleGap) {
			h.lastT = tel.T
			return Verdict{Reason: "stale"}
		}
	}
	h.lastT = tel.T
	h.haveT = true

	raw := tel.RawA
	if math.IsNaN(raw) || math.IsInf(raw, 0) || math.IsNaN(tel.CurrentA) || math.IsInf(tel.CurrentA, 0) {
		h.haveRaw = false
		h.run = 0
		return Verdict{Reason: "nan"}
	}
	if raw < h.cfg.MinPlausibleA || raw > h.cfg.MaxPlausibleA {
		h.haveRaw = false
		h.run = 0
		return Verdict{Reason: "range"}
	}
	if h.haveRaw && raw == h.lastRaw {
		h.run++
	} else {
		h.run = 1
	}
	h.lastRaw = raw
	h.haveRaw = true
	if h.run >= h.cfg.StuckAfter {
		return Verdict{Reason: "stuck"}
	}
	return Verdict{OK: true}
}
