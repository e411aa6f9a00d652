package guard

import (
	"time"

	"radshield/internal/telemetry"
)

// Instruments bundles the guard layer's metric handles. Construct with
// NewInstruments and attach to a Supervisor and/or Watchdog; a nil
// *Instruments disables instrumentation. TELEMETRY.md documents every
// name.
type Instruments struct {
	reg *telemetry.Registry

	// Mode mirrors the Supervisor's ladder rung (0 linear_model,
	// 1 static_threshold, 2 hardware_trip).
	Mode *telemetry.Gauge
	// Demotions / Promotions count ladder moves in each direction.
	Demotions  *telemetry.Counter
	Promotions *telemetry.Counter
	// BadSensorSamples counts samples the health monitor rejected.
	BadSensorSamples *telemetry.Counter
	// BlindCycles counts precautionary power cycles commanded while the
	// board could not observe its own current.
	BlindCycles *telemetry.Counter
	// HangCycles counts power cycles commanded for a wedged kernel
	// counter surface; HeartbeatGaps counts samples that arrived after
	// a silent gap longer than the heartbeat timeout.
	HangCycles    *telemetry.Counter
	HeartbeatGaps *telemetry.Counter
	// WatchdogStrikes counts killed or crashed executor visits;
	// WatchdogKills counts the subset killed at the deadline.
	WatchdogStrikes *telemetry.Counter
	WatchdogKills   *telemetry.Counter
	// Redundancy mirrors the Watchdog's mode (0 tmr, 1 dmr_checksum,
	// 2 serial).
	Redundancy *telemetry.Gauge
}

// NewInstruments registers the guard metric set on reg. A nil registry
// yields nil (instrumentation disabled).
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		reg:              reg,
		Mode:             reg.Gauge("guard_mode", "rung"),
		Demotions:        reg.Counter("guard_demotions_total", "transitions"),
		Promotions:       reg.Counter("guard_promotions_total", "transitions"),
		BadSensorSamples: reg.Counter("guard_bad_sensor_samples_total", "samples"),
		BlindCycles:      reg.Counter("guard_blind_cycles_total", "cycles"),
		HangCycles:       reg.Counter("guard_hang_cycles_total", "cycles"),
		HeartbeatGaps:    reg.Counter("guard_heartbeat_gaps_total", "gaps"),
		WatchdogStrikes:  reg.Counter("guard_watchdog_strikes_total", "visits"),
		WatchdogKills:    reg.Counter("guard_watchdog_kills_total", "visits"),
		Redundancy:       reg.Gauge("guard_redundancy_mode", "rung"),
	}
}

// setGuardMode seeds the mode gauge at attach time.
func (ins *Instruments) setGuardMode(m Mode) {
	if ins == nil {
		return
	}
	ins.Mode.Set(float64(m))
}

// guardModeChange records one ladder move.
func (ins *Instruments) guardModeChange(t time.Duration, from, to Mode, reason string) {
	if ins == nil {
		return
	}
	ins.Mode.Set(float64(to))
	if to > from {
		ins.Demotions.Inc()
	} else {
		ins.Promotions.Inc()
	}
	ins.reg.Emit(telemetry.Event{
		T:    t,
		Kind: telemetry.KindGuardMode,
		Fields: map[string]any{
			"from":   from.String(),
			"to":     to.String(),
			"reason": reason,
		},
	})
}

// badSensorSample counts one rejected health verdict.
func (ins *Instruments) badSensorSample() {
	if ins == nil {
		return
	}
	ins.BadSensorSamples.Inc()
}

// blindCycle records one precautionary power cycle.
func (ins *Instruments) blindCycle(t time.Duration) {
	if ins == nil {
		return
	}
	ins.BlindCycles.Inc()
	ins.reg.Emit(telemetry.Event{
		T:    t,
		Kind: telemetry.KindBlindCycle,
	})
}

// hangCycle records one power cycle commanded for a wedged kernel.
func (ins *Instruments) hangCycle(t time.Duration) {
	if ins == nil {
		return
	}
	ins.HangCycles.Inc()
	ins.reg.Emit(telemetry.Event{
		T:    t,
		Kind: telemetry.KindHangCycle,
	})
}

// heartbeatGap records one silent gap in the telemetry stream.
func (ins *Instruments) heartbeatGap(t time.Duration, gap time.Duration) {
	if ins == nil {
		return
	}
	ins.HeartbeatGaps.Inc()
	ins.reg.Emit(telemetry.Event{
		T:      t,
		Kind:   telemetry.KindHeartbeatGap,
		Fields: map[string]any{"gap_ns": int64(gap)},
	})
}

// setRedundancyMode seeds the redundancy gauge at attach time.
func (ins *Instruments) setRedundancyMode(m RedundancyMode) {
	if ins == nil {
		return
	}
	ins.Redundancy.Set(float64(m))
}

// replicaKill records one killed or crashed executor visit. The
// watchdog runs outside the board's clock (EMR bills virtual time per
// run), so the event timestamp is left zero.
func (ins *Instruments) replicaKill(executor, dataset int, cause string) {
	if ins == nil {
		return
	}
	ins.WatchdogStrikes.Inc()
	if cause == "hang" {
		ins.WatchdogKills.Inc()
	}
	ins.reg.Emit(telemetry.Event{
		Kind: telemetry.KindReplicaKill,
		Fields: map[string]any{
			"executor": executor,
			"dataset":  dataset,
			"cause":    cause,
		},
	})
}

// redundancyChange records one watchdog ladder move; executor is the
// core whose persistent failure triggered it.
func (ins *Instruments) redundancyChange(from, to RedundancyMode, executor int) {
	if ins == nil {
		return
	}
	ins.Redundancy.Set(float64(to))
	ins.reg.Emit(telemetry.Event{
		Kind: telemetry.KindRedundancyMode,
		Fields: map[string]any{
			"from":     from.String(),
			"to":       to.String(),
			"executor": executor,
		},
	})
}
