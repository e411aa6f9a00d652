package power

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file holds the sensor-fault models: deterministic, schedulable
// failures of the current sensor itself. The paper assumes the INA3221
// always answers; "Where Linux Breaks Under Radiation" (PAPERS.md)
// shows proton-induced failures on COTS boards are dominated by hangs,
// stalls, and peripheral/driver faults — the measurement path is as
// vulnerable as the compute it watches. These models let campaigns ask
// what Radshield does when its own eyes fail (see internal/guard).

// FaultKind classifies a sensor fault model.
type FaultKind int

const (
	// FaultNone is the healthy sensor (no transformation).
	FaultNone FaultKind = iota
	// FaultDropout models a dead measurement path (I2C bus hang, driver
	// timeout): reads return no data, represented as NaN readings.
	FaultDropout
	// FaultStuck models a frozen ADC or wedged driver buffer: every read
	// returns the last value the sensor produced while healthy.
	FaultStuck
	// FaultOffset models a calibration upset (shunt reference drift): a
	// constant bias is added to every reading.
	FaultOffset
	// FaultGarbage models a corrupted register file: reads return
	// deterministic garbage — NaN, negative, or implausibly large values.
	FaultGarbage
)

// String names the fault kind for tables and telemetry fields.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropout:
		return "dropout"
	case FaultStuck:
		return "stuck"
	case FaultOffset:
		return "offset"
	case FaultGarbage:
		return "garbage"
	default:
		return "unknown"
	}
}

// SensorFault is one scheduled fault window on the sensor, in simulated
// time. A zero Duration means the fault is permanent once it starts.
type SensorFault struct {
	Kind     FaultKind
	Start    time.Duration
	Duration time.Duration
	// OffsetA is the added bias for FaultOffset (ignored otherwise).
	OffsetA float64
}

// active reports whether the fault covers the instant now.
func (f SensorFault) active(now time.Duration) bool {
	if f.Kind == FaultNone || now < f.Start {
		return false
	}
	return f.Duration <= 0 || now < f.Start+f.Duration
}

// ScheduleFault adds a fault window to the sensor's schedule. When
// windows overlap, the earliest-scheduled fault wins. Faults are part of
// the experiment configuration, so invalid ones are rejected with an
// error rather than silently ignored.
func (s *Sensor) ScheduleFault(f SensorFault) error {
	switch f.Kind {
	case FaultDropout, FaultStuck, FaultOffset, FaultGarbage:
	default:
		return fmt.Errorf("power: ScheduleFault: invalid kind %d", int(f.Kind))
	}
	if f.Start < 0 {
		return fmt.Errorf("power: ScheduleFault: negative start %v", f.Start)
	}
	if f.Duration < 0 {
		return fmt.Errorf("power: ScheduleFault: negative duration %v", f.Duration)
	}
	if f.Kind == FaultOffset && (math.IsNaN(f.OffsetA) || math.IsInf(f.OffsetA, 0)) {
		return fmt.Errorf("power: ScheduleFault: non-finite offset %v", f.OffsetA)
	}
	s.faults = append(s.faults, f)
	return nil
}

// activeFault returns the fault covering the instant now, or nil.
func (s *Sensor) activeFault(now time.Duration) *SensorFault {
	for i := range s.faults {
		if s.faults[i].active(now) {
			return &s.faults[i]
		}
	}
	return nil
}

// faultSeedSalt decorrelates the garbage-value stream from the nominal
// noise stream: scheduling a fault must never perturb the healthy
// samples outside the fault window, so garbage values draw from their
// own generator.
const faultSeedSalt = 0x5eed

// applyFault transforms one healthy reading through the active fault f.
// The healthy value is always computed first — the nominal noise stream
// burns the same RNG draws whether or not a fault is scheduled, so the
// readings outside the fault window are bit-identical to an unfaulted
// run with the same seed.
func (s *Sensor) applyFault(f *SensorFault, healthy float64) float64 {
	switch f.Kind {
	case FaultDropout:
		return math.NaN()
	case FaultStuck:
		if s.haveHealthy {
			return s.lastHealthy
		}
		return 0
	case FaultOffset:
		return healthy + f.OffsetA
	case FaultGarbage:
		return s.garbageValue()
	default:
		return healthy
	}
}

// garbageValue draws one deterministic corrupted reading: a third NaN, a
// third negative, a third implausibly large.
func (s *Sensor) garbageValue() float64 {
	if s.frng == nil {
		s.frng = rand.New(rand.NewSource(s.seed + faultSeedSalt))
	}
	switch s.frng.Intn(3) {
	case 0:
		return math.NaN()
	case 1:
		return -s.frng.Float64() * 100
	default:
		return 100 + float64(s.frng.Float64()*1e6)
	}
}
