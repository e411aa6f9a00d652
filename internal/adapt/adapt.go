package adapt

import (
	"fmt"
	"time"

	"radshield/internal/fault"
	"radshield/internal/guard"
)

// Level is a rung on the protection-posture ladder. Higher levels buy
// detection speed and redundancy with energy and bandwidth; the
// controller's job is to sit as low as the observed error climate
// allows.
type Level int

const (
	// LevelRelaxed is the quiet-cruise posture: sparse measurement
	// bubbles, the paper's stock ILD threshold loosened, payload runs
	// serially under the checksum guard only.
	LevelRelaxed Level = iota
	// LevelNominal is the paper's operating point with dual-modular
	// payload redundancy.
	LevelNominal
	// LevelElevated adds TMR and denser bubbles — the posture for a
	// known-hot phase or a rising error rate.
	LevelElevated
	// LevelMax is full battle stations: densest bubbles, the most
	// sensitive threshold, TMR, priority-only downlink beaconing.
	LevelMax

	// NumLevels is the ladder height.
	NumLevels = int(LevelMax) + 1
)

// String returns the level name used in telemetry and downlink
// payloads.
func (l Level) String() string {
	switch l {
	case LevelRelaxed:
		return "relaxed"
	case LevelNominal:
		return "nominal"
	case LevelElevated:
		return "elevated"
	case LevelMax:
		return "max"
	default:
		return "unknown"
	}
}

// Signal is one error-rate observation kind the controller ingests.
type Signal int

const (
	// SignalILDDetect: the latchup detector fired.
	SignalILDDetect Signal = iota
	// SignalILDRefire: the detector fired again shortly after a power
	// cycle — the classic biased-sensor storm signature.
	SignalILDRefire
	// SignalEMRMismatch: payload replicas disagreed (a vote was
	// corrected or failed) or the checksum guard rejected an input.
	SignalEMRMismatch
	// SignalGuardSensorBad: the guard supervisor demoted the detector
	// ladder (sensor health lost).
	SignalGuardSensorBad
	// SignalWatchdogReset: the hardware watchdog (or the supply's own
	// over-current trip) power cycled the board.
	SignalWatchdogReset

	numSignals = int(SignalWatchdogReset) + 1
)

// String returns the signal name.
func (s Signal) String() string {
	switch s {
	case SignalILDDetect:
		return "ild_detect"
	case SignalILDRefire:
		return "ild_refire"
	case SignalEMRMismatch:
		return "emr_mismatch"
	case SignalGuardSensorBad:
		return "guard_sensor_bad"
	case SignalWatchdogReset:
		return "watchdog_reset"
	default:
		return "unknown"
	}
}

// Config tunes the controller. The escalate/relax pair plus the dwell
// floor implement hysteresis: the escalation threshold is crossed by a
// burst of weighted signals inside the sliding window, but relaxing
// additionally requires the score to fall strictly below a lower bar
// AND a minimum dwell at the current level — so one quiet window after
// a storm never bounces the posture straight back down (MISSIONS.md
// records the rationale).
type Config struct {
	// Window is the sliding simclock span over which signal weights are
	// summed into the score.
	Window time.Duration
	// EscalateAt escalates one rung when the windowed score reaches it.
	EscalateAt float64
	// PanicAt jumps straight to LevelMax (storm response). Zero
	// disables the jump.
	PanicAt float64
	// RelaxBelow relaxes one rung when the score falls strictly below
	// it. Must be < EscalateAt — the gap is the hysteresis band.
	RelaxBelow float64
	// HoldFor is the minimum dwell at a level before the controller may
	// relax out of it. Escalation is never held back.
	HoldFor time.Duration
	// Weights maps each Signal to its score contribution; a zero array
	// is replaced by DefaultConfig's weights. A fixed-size array (not a
	// map) keeps iteration order deterministic.
	Weights [numSignals]float64
	// Start is the initial level.
	Start Level
}

// DefaultConfig returns the campaign operating point: a 10-minute
// window, escalation on roughly two detector-grade signals, relaxation
// only after a fully quiet window and a 15-minute dwell.
func DefaultConfig() Config {
	return Config{
		Window:     10 * time.Minute,
		EscalateAt: 2,
		PanicAt:    6,
		RelaxBelow: 1,
		HoldFor:    15 * time.Minute,
		Weights: [numSignals]float64{
			SignalILDDetect:      1,
			SignalILDRefire:      2,
			SignalEMRMismatch:    1,
			SignalGuardSensorBad: 2,
			SignalWatchdogReset:  3,
		},
		Start: LevelNominal,
	}
}

// Validate rejects configurations the controller cannot run.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("adapt: Window must be positive")
	}
	if c.EscalateAt <= 0 {
		return fmt.Errorf("adapt: EscalateAt must be positive")
	}
	if c.RelaxBelow <= 0 || c.RelaxBelow >= c.EscalateAt {
		return fmt.Errorf("adapt: RelaxBelow %v must sit in (0, EscalateAt %v) — the gap is the hysteresis band",
			c.RelaxBelow, c.EscalateAt)
	}
	if c.PanicAt != 0 && c.PanicAt < c.EscalateAt {
		return fmt.Errorf("adapt: PanicAt %v must be ≥ EscalateAt %v (or zero to disable)", c.PanicAt, c.EscalateAt)
	}
	if c.HoldFor < 0 {
		return fmt.Errorf("adapt: HoldFor must be non-negative")
	}
	for s, w := range c.Weights {
		if w < 0 {
			return fmt.Errorf("adapt: negative weight for signal %v", Signal(s))
		}
	}
	if c.Start < 0 || int(c.Start) >= NumLevels {
		return fmt.Errorf("adapt: Start level %d out of range", int(c.Start))
	}
	return nil
}

// Move is one decision-trace entry: a posture change and why.
type Move struct {
	T     time.Duration
	From  Level
	To    Level
	Score float64
	// Reason is "escalate", "panic" or "relax".
	Reason string
}

// Decision is what Observe reports for the current sample.
type Decision struct {
	Level   Level
	Changed bool
	Score   float64
}

// sigEvent is one noted signal occurrence inside the sliding window.
type sigEvent struct {
	t time.Duration
	w float64
}

// Controller is the closed loop: Note feeds it error-rate signals,
// Observe advances sim time, prunes the window, and moves the posture
// with hysteresis. Everything is deterministic — sim time in, decisions
// out, and the full decision trace is kept for the campaign to render.
type Controller struct {
	cfg   Config
	level Level
	// lastMove is when the level last changed (dwell accounting).
	lastMove time.Duration
	lastSeen time.Duration
	window   []sigEvent
	score    float64
	trace    []Move
	dwell    [NumLevels]time.Duration
	ins      *Instruments
}

// New returns a controller at the configured start level. ins may be
// nil (instrumentation disabled).
func New(cfg Config, ins *Instruments) (*Controller, error) {
	zero := [numSignals]float64{}
	if cfg.Weights == zero {
		cfg.Weights = DefaultConfig().Weights
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, level: cfg.Start, ins: ins}
	ins.setLevel(cfg.Start)
	return c, nil
}

// Level returns the current posture level.
func (c *Controller) Level() Level { return c.level }

// Trace returns the decision trace, oldest move first. The returned
// slice is the controller's own; treat it as read-only.
func (c *Controller) Trace() []Move { return c.trace }

// Dwell returns the total sim time spent at level l so far (through
// the last Observe call).
func (c *Controller) Dwell(l Level) time.Duration { return c.dwell[l] }

// Note records one signal occurrence at sim time t. Signals arriving
// between Observe calls accumulate; out-of-range signals are ignored.
func (c *Controller) Note(t time.Duration, s Signal) {
	if s < 0 || int(s) >= numSignals {
		return
	}
	w := c.cfg.Weights[s]
	if w == 0 {
		return
	}
	c.window = append(c.window, sigEvent{t: t, w: w})
	c.score += w
	c.ins.signal(s)
}

// Observe advances the controller to sim time t: expire signals older
// than the window, charge dwell, and move the posture if the hysteresis
// rules allow. Call it once per telemetry sample.
func (c *Controller) Observe(t time.Duration) Decision {
	if t > c.lastSeen {
		c.dwell[c.level] += t - c.lastSeen
		c.lastSeen = t
	}
	cutoff := t - c.cfg.Window
	drop := 0
	for drop < len(c.window) && c.window[drop].t < cutoff {
		c.score -= c.window[drop].w
		drop++
	}
	if drop > 0 {
		c.window = c.window[drop:]
		if len(c.window) == 0 {
			c.score = 0 // resorb float drift at the natural zero
		}
	}

	d := Decision{Level: c.level, Score: c.score}
	switch {
	case c.cfg.PanicAt > 0 && c.score >= c.cfg.PanicAt && c.level < LevelMax:
		c.move(t, LevelMax, "panic")
	case c.score >= c.cfg.EscalateAt && c.level < LevelMax:
		c.move(t, c.level+1, "escalate")
	case c.score < c.cfg.RelaxBelow && c.level > LevelRelaxed && t-c.lastMove >= c.cfg.HoldFor:
		c.move(t, c.level-1, "relax")
	default:
		return d
	}
	d.Level = c.level
	d.Changed = true
	return d
}

// move performs one ladder transition and records it.
func (c *Controller) move(t time.Duration, to Level, reason string) {
	from := c.level
	c.level = to
	c.lastMove = t
	c.trace = append(c.trace, Move{T: t, From: from, To: to, Score: c.score, Reason: reason})
	c.ins.levelChange(t, from, to, c.score, reason)
	// An escalation consumes the evidence that drove it: the window
	// restarts so the new posture is judged on fresh signals, not
	// re-escalated by the same burst next sample.
	c.window = c.window[:0]
	c.score = 0
}

// Posture is the concrete protection configuration a level maps to —
// the knobs the existing ild/emr/guard/downlink hooks accept.
type Posture struct {
	Level Level
	// ILDThresholdA is the detector threshold profile for the level.
	// Every rung stays below fault.Environment SEL amplitudes (≥ 70 mA
	// in all presets) so a latchup is detectable at any posture; the
	// ladder trades false-positive power cycles against sensitivity.
	ILDThresholdA float64
	// BubbleEvery is the measurement-bubble cadence (ild.BubblePolicy
	// Pause): how often the flight software pays for a quiescent
	// detection window.
	BubbleEvery time.Duration
	// Redundancy is the payload execution rung: serial (single
	// checksum-guarded run) → DMR+checksum → TMR, reusing the guard
	// watchdog's ladder vocabulary.
	Redundancy guard.RedundancyMode
	// SerialChecksum marks the bottom rung: run the payload once under
	// the read-path checksum guard instead of any replication.
	SerialChecksum bool
	// HousekeepEvery is the downlink housekeeping cadence.
	HousekeepEvery time.Duration
	// Beacon requests priority-only downlink beaconing (the transmitter
	// protects the p0 backlog at the cost of bulk science).
	Beacon bool
}

// Plan is the EMR runtime the posture's payload rung runs on: the
// bottom rung's single checksum-guarded run, else the redundancy mode's
// plan.
func (p Posture) Plan() guard.Plan {
	if p.SerialChecksum {
		return guard.Plan{Scheme: fault.SchemeChecksum, Executors: 1}
	}
	return p.Redundancy.Plan()
}

// PostureFor maps a level onto its protection configuration. The table
// is the controller ladder MISSIONS.md documents; the campaign and the
// flight examples both read it, so the posture a level implies is
// defined in exactly one place.
func PostureFor(l Level) Posture {
	switch l {
	case LevelRelaxed:
		return Posture{Level: l, ILDThresholdA: 0.060, BubbleEvery: 6 * time.Minute,
			Redundancy: guard.RedundancySerial, SerialChecksum: true, HousekeepEvery: 40 * time.Second}
	case LevelElevated:
		return Posture{Level: l, ILDThresholdA: 0.045, BubbleEvery: 2 * time.Minute,
			Redundancy: guard.RedundancyTMR, HousekeepEvery: 10 * time.Second, Beacon: true}
	case LevelMax:
		return Posture{Level: l, ILDThresholdA: 0.040, BubbleEvery: time.Minute,
			Redundancy: guard.RedundancyTMR, HousekeepEvery: 5 * time.Second, Beacon: true}
	default: // LevelNominal — the paper's operating point
		return Posture{Level: l, ILDThresholdA: 0.055, BubbleEvery: 3 * time.Minute,
			Redundancy: guard.RedundancyDMRChecksum, HousekeepEvery: 20 * time.Second}
	}
}
