package guard

import (
	"fmt"
	"time"

	"radshield/internal/fault"
)

// RedundancyMode is the EMR runtime's position on the guard's
// redundancy ladder.
type RedundancyMode int

const (
	// RedundancyTMR: three executors, majority vote corrects any single
	// corruption (the paper's EMR).
	RedundancyTMR RedundancyMode = iota
	// RedundancyDMRChecksum: one core is bad; the two good cores run
	// DMR — disagreement is detected but not correctable by vote — and
	// a checksum pass arbitrates disagreeing datasets.
	RedundancyDMRChecksum
	// RedundancySerial: a second core is bad; all redundant copies run
	// time-multiplexed on the remaining good core (serial 3-MR).
	RedundancySerial
)

// String names the redundancy mode as it appears in telemetry fields.
func (m RedundancyMode) String() string {
	switch m {
	case RedundancyTMR:
		return "tmr"
	case RedundancyDMRChecksum:
		return "dmr_checksum"
	case RedundancySerial:
		return "serial"
	default:
		return "unknown"
	}
}

// Plan is the EMR configuration a redundancy mode calls for. The
// campaign owning the runtime rebuilds it between runs; ChecksumArbiter
// asks for a SchemeChecksum pass over datasets whose DMR vote failed.
type Plan struct {
	Scheme          fault.Scheme
	Executors       int
	ChecksumArbiter bool
}

// Plan maps the mode onto scheme and executor count.
func (m RedundancyMode) Plan() Plan {
	switch m {
	case RedundancyDMRChecksum:
		return Plan{Scheme: fault.SchemeEMR, Executors: 2, ChecksumArbiter: true}
	case RedundancySerial:
		return Plan{Scheme: fault.SchemeSerial3MR, Executors: 3}
	default:
		return Plan{Scheme: fault.SchemeEMR, Executors: 3}
	}
}

// WatchdogConfig tunes the EMR watchdog.
type WatchdogConfig struct {
	// Deadline is the per-visit virtual-time budget; a visit whose
	// elapsed exceeds it is killed (billed at the deadline, errored into
	// the vote). Zero disables deadline kills — crashes still strike.
	Deadline time.Duration
	// MaxStrikes marks an executor bad after this many consecutive
	// killed or crashed visits. A clean visit clears the streak:
	// persistent faults demote, sporadic upsets do not.
	MaxStrikes int
	// RetryLimit bounds how many times a failed dataset may be re-run.
	RetryLimit int
	// BackoffBase paces retries deterministically: attempt i (0-based)
	// waits BackoffBase << i of virtual time.
	BackoffBase time.Duration
}

// DefaultWatchdogConfig returns the simulated board's operating point.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		Deadline:    500 * time.Millisecond,
		MaxStrikes:  3,
		RetryLimit:  3,
		BackoffBase: 10 * time.Millisecond,
	}
}

// Watchdog supervises EMR executor visits. It implements emr.Watcher;
// attach it via emr.Config.Watch. The runtime invokes VisitDone on its
// deterministic sequential collection path, so strike counts and mode
// transitions are reproducible run to run.
type Watchdog struct {
	cfg WatchdogConfig

	strikes map[int]int
	bad     map[int]bool
	mode    RedundancyMode

	kills, crashes int

	ins *Instruments
}

// NewWatchdog validates cfg and returns a watchdog in TMR mode.
func NewWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("guard: Deadline = %v, want ≥ 0", cfg.Deadline)
	}
	if cfg.MaxStrikes < 1 {
		return nil, fmt.Errorf("guard: MaxStrikes = %d, want ≥ 1", cfg.MaxStrikes)
	}
	if cfg.RetryLimit < 0 {
		return nil, fmt.Errorf("guard: RetryLimit = %d, want ≥ 0", cfg.RetryLimit)
	}
	if cfg.RetryLimit > 0 && cfg.BackoffBase <= 0 {
		return nil, fmt.Errorf("guard: BackoffBase = %v, want > 0 when retries are enabled", cfg.BackoffBase)
	}
	return &Watchdog{
		cfg:     cfg,
		strikes: make(map[int]int),
		bad:     make(map[int]bool),
	}, nil
}

// SetInstruments attaches telemetry instruments (nil detaches them).
func (w *Watchdog) SetInstruments(ins *Instruments) {
	w.ins = ins
	w.ins.setRedundancyMode(w.mode)
}

// VisitDone implements emr.Watcher. A crashed visit strikes its
// executor and propagates. A hung visit (elapsed past the deadline) is
// killed: billed at the deadline and errored so the vote proceeds with
// the remaining replicas. A clean visit clears the executor's streak.
func (w *Watchdog) VisitDone(executor, dataset int, elapsed time.Duration, visitErr error) (time.Duration, error) {
	if visitErr != nil {
		w.crashes++
		w.strike(executor, dataset, "crash")
		return elapsed, visitErr
	}
	if w.cfg.Deadline > 0 && elapsed > w.cfg.Deadline {
		w.kills++
		w.strike(executor, dataset, "hang")
		return w.cfg.Deadline, fmt.Errorf(
			"guard: watchdog killed executor %d on dataset %d: elapsed %v exceeds deadline %v",
			executor, dataset, elapsed, w.cfg.Deadline)
	}
	w.strikes[executor] = 0
	return elapsed, nil
}

// strike records one failed visit and demotes the redundancy mode when
// the executor crosses the persistent-bad threshold.
func (w *Watchdog) strike(executor, dataset int, cause string) {
	w.strikes[executor]++
	w.ins.replicaKill(executor, dataset, cause)
	if w.strikes[executor] < w.cfg.MaxStrikes || w.bad[executor] {
		return
	}
	w.bad[executor] = true
	from := w.mode
	switch len(w.bad) {
	case 0:
		w.mode = RedundancyTMR
	case 1:
		w.mode = RedundancyDMRChecksum
	default:
		w.mode = RedundancySerial
	}
	if w.mode != from {
		w.ins.redundancyChange(from, w.mode, executor)
	}
}

// Mode returns the current redundancy mode.
func (w *Watchdog) Mode() RedundancyMode { return w.mode }

// Plan returns the EMR configuration the current mode calls for.
func (w *Watchdog) Plan() Plan { return w.mode.Plan() }

// Kills and Crashes count hung visits killed at the deadline and
// crashed visits observed, respectively.
func (w *Watchdog) Kills() int   { return w.kills }
func (w *Watchdog) Crashes() int { return w.crashes }

// Backoff returns the deterministic delay before retry attempt i
// (0-based) and whether that attempt is within the retry budget.
func (w *Watchdog) Backoff(attempt int) (time.Duration, bool) {
	if attempt < 0 || attempt >= w.cfg.RetryLimit {
		return 0, false
	}
	return w.cfg.BackoffBase << uint(attempt), true
}
