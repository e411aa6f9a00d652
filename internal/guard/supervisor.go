package guard

import (
	"fmt"
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
)

// SupervisorConfig tunes the degradation ladder.
type SupervisorConfig struct {
	Health HealthConfig
	// BadAfter demotes one rung after this many consecutive bad sensor
	// verdicts. Small enough that detection stays well inside the
	// paper's 3-minute window, large enough that a lone corrupt sample
	// does not discard the linear model.
	BadAfter int
	// GoodAfter promotes one rung after this many consecutive healthy
	// verdicts (and a refire-quiet period) — recovery is deliberately
	// slower than demotion.
	GoodAfter int
	// RefireWindow / RefireLimit detect bias/offset faults the
	// per-sample checks cannot see: a biased sensor makes the active
	// detector fire again almost immediately after each power cycle
	// (the latchup "comes back" because it was never real). RefireLimit
	// rising-edge detections, each within RefireWindow of the previous,
	// demote one rung. RefireLimit 0 disables the check.
	RefireWindow time.Duration
	RefireLimit  int
	// BlindCycleEvery issues a precautionary power cycle on this period
	// while the board cannot observe its own current (sensor unhealthy,
	// or ladder fully degraded). It must be shorter than the detection
	// window (3 min) so an SEL struck while blind is still cleared
	// before thermal damage (~5 min). Zero disables blind cycles.
	BlindCycleEvery time.Duration
	// StaticLevelA is the fixed threshold used on the
	// ModeStaticThreshold rung.
	StaticLevelA float64
	// HangAfter commands a power cycle after this many consecutive
	// wedged samples: zero instruction progress on every core with an
	// exactly-repeated current reading. A live board's Gaussian sensor
	// noise never repeats a reading bit-for-bit, so the conjunction
	// only holds when the kernel's syscall surface is latched (a hang).
	// Zero disables hang detection.
	HangAfter int
	// HeartbeatTimeout flags samples that arrive further apart than
	// this gap — the board was silent in between (kernel dead until a
	// watchdog reset brought it back). Zero disables the check.
	HeartbeatTimeout time.Duration
}

// DefaultSupervisorConfig returns the simulated board's operating
// point: demote within 25 samples of a hard sensor fault, re-promote
// after half a second of clean readings, blind-cycle every 2 minutes
// (inside the 3-minute detection requirement). Hang and heartbeat
// detection default off — campaigns that schedule OS faults enable
// them explicitly.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		Health:          DefaultHealthConfig(),
		BadAfter:        25,
		GoodAfter:       500,
		RefireWindow:    30 * time.Second,
		RefireLimit:     3,
		BlindCycleEvery: 2 * time.Minute,
		StaticLevelA:    1.8,
	}
}

// Decision is the Supervisor's per-sample output — the detector output
// surface of the guard layer.
type Decision struct {
	// Mode is the ladder rung in effect for this sample.
	Mode Mode
	// SensorOK is this sample's health verdict; Reason explains a
	// failure ("nan", "range", "stuck", "stale"), or a demotion the
	// refire check took on a healthy sample ("refire").
	SensorOK bool
	Reason   string
	// Demoted / Promoted flag a ladder move taken on this sample.
	Demoted  bool
	Promoted bool
	// Fired reports the active monitor declaring an SEL. The caller
	// should power cycle and then call NotePowerCycle, as Protection
	// does.
	Fired bool
	// BlindCycle commands a precautionary power cycle: the board has
	// been blind long enough that an unseen latchup could be
	// approaching the damage horizon.
	BlindCycle bool
	// HangCycle commands a power cycle because the kernel's counter
	// surface wedged for HangAfter consecutive samples.
	HangCycle bool
	// HeartbeatGap flags that this sample arrived after a silent gap
	// longer than HeartbeatTimeout (the board was down in between).
	HeartbeatGap bool
}

// Supervisor drives ILD's degradation ladder from sensor-health
// verdicts and detector refire behaviour. Feed every telemetry sample
// to Observe and act on the Decision; call NotePowerCycle after any
// commanded power cycle so detector state restarts cleanly.
type Supervisor struct {
	cfg    SupervisorConfig
	health *SensorHealth
	det    *ild.Detector
	static *ild.StaticThreshold

	mode       Mode
	badStreak  int
	goodStreak int

	// refire tracking (rising-edge detections only)
	prevFired    bool
	lastDetectAt time.Duration
	haveDetect   bool
	refires      int

	// blind-cycle pacing
	blindSince time.Duration
	blind      bool

	// hang / heartbeat tracking
	lastSampleT  time.Duration
	lastCurrentA float64
	haveSample   bool
	wedgedStreak int

	demotions, promotions, blindCycles, hangCycles int

	ins        *Instruments
	modeChange func(t time.Duration, from, to Mode, reason string)
}

// NewSupervisor validates cfg and wraps the trained detector.
func NewSupervisor(det *ild.Detector, cfg SupervisorConfig) (*Supervisor, error) {
	if det == nil {
		return nil, fmt.Errorf("guard: nil detector")
	}
	health, err := NewSensorHealth(cfg.Health)
	if err != nil {
		return nil, err
	}
	if cfg.BadAfter < 1 || cfg.GoodAfter < 1 {
		return nil, fmt.Errorf("guard: BadAfter = %d and GoodAfter = %d must be ≥ 1", cfg.BadAfter, cfg.GoodAfter)
	}
	if cfg.RefireLimit < 0 || cfg.RefireWindow < 0 || cfg.BlindCycleEvery < 0 {
		return nil, fmt.Errorf("guard: refire/blind-cycle settings must be ≥ 0")
	}
	if cfg.RefireLimit > 0 && cfg.RefireWindow == 0 {
		return nil, fmt.Errorf("guard: RefireLimit %d needs a positive RefireWindow", cfg.RefireLimit)
	}
	if cfg.HangAfter < 0 || cfg.HeartbeatTimeout < 0 {
		return nil, fmt.Errorf("guard: HangAfter and HeartbeatTimeout must be ≥ 0")
	}
	static, err := ild.NewStaticThreshold(cfg.StaticLevelA)
	if err != nil {
		return nil, err
	}
	return &Supervisor{cfg: cfg, health: health, det: det, static: static}, nil
}

// SetInstruments attaches telemetry instruments (nil detaches them).
func (s *Supervisor) SetInstruments(ins *Instruments) {
	s.ins = ins
	s.ins.setGuardMode(s.mode)
}

// Mode returns the current ladder rung.
func (s *Supervisor) Mode() Mode { return s.mode }

// OnModeChange registers fn to run synchronously on every ladder move,
// after the Supervisor's own state has settled. It is how downstream
// subsystems follow the degradation ladder without polling — the
// downlink transmitter, for example, drops to beacon mode whenever the
// supervisor steps below the linear model. One callback; registering
// again replaces it, nil detaches.
func (s *Supervisor) OnModeChange(fn func(t time.Duration, from, to Mode, reason string)) {
	s.modeChange = fn
}

// Demotions, Promotions and BlindCycles count ladder moves and
// precautionary cycles since construction.
func (s *Supervisor) Demotions() int   { return s.demotions }
func (s *Supervisor) Promotions() int  { return s.promotions }
func (s *Supervisor) BlindCycles() int { return s.blindCycles }

// HangCycles counts power cycles commanded for a wedged counter
// surface.
func (s *Supervisor) HangCycles() int { return s.hangCycles }

// Observe consumes one telemetry sample: classify sensor health, move
// the ladder if warranted, run the active monitor, and pace blind
// cycles. Deterministic — state advances only from tel.
func (s *Supervisor) Observe(tel machine.Telemetry) Decision {
	// Kernel-liveness checks run before sensor health: they reason about
	// the sample stream itself, not the values in it.
	gap := s.cfg.HeartbeatTimeout > 0 && s.haveSample &&
		tel.T-s.lastSampleT > s.cfg.HeartbeatTimeout
	if gap {
		s.ins.heartbeatGap(tel.T, tel.T-s.lastSampleT)
	}
	// A wedged kernel latches every syscall-backed reading: zero counter
	// progress and a bit-for-bit repeated current. Live sensor noise
	// never repeats exactly, so the conjunction is hang-specific. A gap
	// sample restarts the streak — the board just rebooted.
	wedged := s.cfg.HangAfter > 0 && s.haveSample && !gap &&
		tel.TotalInstrPerSec() == 0 && tel.CurrentA == s.lastCurrentA
	if wedged {
		s.wedgedStreak++
	} else {
		s.wedgedStreak = 0
	}
	s.lastSampleT = tel.T
	s.lastCurrentA = tel.CurrentA
	s.haveSample = true

	v := s.health.Observe(tel)
	d := Decision{SensorOK: v.OK, Reason: v.Reason, HeartbeatGap: gap}

	if v.OK {
		s.goodStreak++
		s.badStreak = 0
	} else {
		s.badStreak++
		s.goodStreak = 0
		s.ins.badSensorSample()
	}

	if !v.OK && s.badStreak >= s.cfg.BadAfter && s.mode != ModeHardwareTrip {
		s.demote(tel.T, v.Reason)
		s.badStreak = 0
		d.Demoted = true
	}
	if v.OK && s.mode != ModeLinearModel && s.goodStreak >= s.cfg.GoodAfter && s.refireQuiet(tel.T) {
		s.promote(tel.T)
		s.goodStreak = 0
		d.Promoted = true
	}
	d.Mode = s.mode

	// Run the active monitor. Both monitors tolerate corrupt samples
	// (ILD rejects NaN/Inf outright; NaN never exceeds a threshold), so
	// the sample is fed unconditionally — a biased-but-plausible sensor
	// must keep flowing into the detector for the refire check to see
	// its signature.
	switch s.mode {
	case ModeLinearModel:
		d.Fired = s.det.Observe(tel)
	case ModeStaticThreshold:
		d.Fired = s.static.Observe(tel)
	}
	if d.Fired && !s.prevFired {
		if s.noteDetection(tel.T) {
			d.Demoted = true
			d.Mode = s.mode
			d.Reason = "refire"
		}
	}
	s.prevFired = d.Fired

	if s.cfg.HangAfter > 0 && s.wedgedStreak >= s.cfg.HangAfter {
		s.wedgedStreak = 0
		s.hangCycles++
		s.ins.hangCycle(tel.T)
		d.HangCycle = true
	}

	d.BlindCycle = s.paceBlindCycles(tel.T, v.OK)
	return d
}

// refireQuiet reports whether enough time has passed since the last
// detection that a promotion will not land mid-refire-storm.
func (s *Supervisor) refireQuiet(now time.Duration) bool {
	if !s.haveDetect || s.cfg.RefireWindow == 0 {
		return true
	}
	return now-s.lastDetectAt >= s.cfg.RefireWindow
}

// noteDetection records a rising-edge detection and applies the refire
// demotion rule; it reports whether a demotion was taken.
func (s *Supervisor) noteDetection(t time.Duration) bool {
	demoted := false
	if s.cfg.RefireLimit > 0 && s.haveDetect && t-s.lastDetectAt <= s.cfg.RefireWindow {
		s.refires++
		if s.refires >= s.cfg.RefireLimit && s.mode != ModeHardwareTrip {
			s.demote(t, "refire")
			s.refires = 0
			demoted = true
		}
	} else {
		s.refires = 0
	}
	s.lastDetectAt = t
	s.haveDetect = true
	return demoted
}

// paceBlindCycles returns true when a precautionary power cycle is due.
// The board is blind when the current sample is unusable or the ladder
// has no software monitor left. The period starts at blind onset: a
// just-blinded board cycles BlindCycleEvery later, not immediately.
func (s *Supervisor) paceBlindCycles(now time.Duration, sensorOK bool) bool {
	blind := !sensorOK || s.mode == ModeHardwareTrip
	if !blind || s.cfg.BlindCycleEvery == 0 {
		s.blind = false
		return false
	}
	if !s.blind {
		s.blind = true
		s.blindSince = now
		return false
	}
	if now-s.blindSince >= s.cfg.BlindCycleEvery {
		s.blindSince = now
		s.blindCycles++
		s.ins.blindCycle(now)
		return true
	}
	return false
}

// NotePowerCycle tells the Supervisor the board was power cycled (for a
// detection, a blind cycle, or a supply trip): monitor windows restart
// so pre-cycle residuals cannot leak into the fresh rail.
func (s *Supervisor) NotePowerCycle(t time.Duration) {
	s.det.Reset()
	s.static.Reset()
	s.prevFired = false
	s.wedgedStreak = 0
}

// demote moves one rung down and resets monitor state for the new rung.
func (s *Supervisor) demote(t time.Duration, reason string) {
	from := s.mode
	s.mode++
	s.demotions++
	s.det.Reset()
	s.static.Reset()
	s.prevFired = false
	s.ins.guardModeChange(t, from, s.mode, reason)
	if s.modeChange != nil {
		s.modeChange(t, from, s.mode, reason)
	}
}

// promote moves one rung up.
func (s *Supervisor) promote(t time.Duration) {
	from := s.mode
	s.mode--
	s.promotions++
	s.det.Reset()
	s.static.Reset()
	s.prevFired = false
	s.ins.guardModeChange(t, from, s.mode, "recovered")
	if s.modeChange != nil {
		s.modeChange(t, from, s.mode, "recovered")
	}
}
