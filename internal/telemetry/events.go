package telemetry

import (
	"sync"
	"time"
)

// Kind classifies a structured event. The constants below are the
// vocabulary the instrumented packages emit; TELEMETRY.md documents each
// one's fields and the paper section it traces to.
type Kind string

const (
	// KindSELOnset: a latchup current was injected into the board
	// (machine.InjectSEL). Fields: amps.
	KindSELOnset Kind = "sel_onset"
	// KindSELDetect: a detector declared an SEL. Fields: detector,
	// residual_a (ILD only).
	KindSELDetect Kind = "sel_detect"
	// KindSELClear: the latchup current was removed, by an experiment
	// boundary (machine.ClearSEL) or a commanded power cycle. Fields:
	// via ("clear_sel" or "power_cycle").
	KindSELClear Kind = "sel_clear"
	// KindSupplyTrip: the power supply's own over-current circuit power
	// cycled the board (paper §3.1's ampere-scale thresholding).
	KindSupplyTrip Kind = "supply_trip"
	// KindDamage: an uncleared SEL crossed the thermal damage horizon —
	// the chip is lost.
	KindDamage Kind = "damage"
	// KindVoteMismatch: EMR executors disagreed on a dataset's output
	// (whether or not a majority still existed). Fields: dataset,
	// corrected.
	KindVoteMismatch Kind = "vote_mismatch"
	// KindChecksumMiss: the checksum-guard baseline caught a corrupted
	// input region at read time. Fields: dataset, region.
	KindChecksumMiss Kind = "checksum_miss"
	// KindBubbleInjected: ILD split a workload segment to create a
	// quiescent measurement bubble (paper §3.1). Fields: len_s.
	KindBubbleInjected Kind = "bubble_injected"
	// KindFaultInjected: a fault-injection campaign placed an upset.
	// Fields: target, scheme.
	KindFaultInjected Kind = "fault_injected"
	// KindBadSample: ILD rejected a telemetry sample carrying NaN/Inf
	// current or counter features instead of feeding it to the model.
	// Fields: reason ("current" or "features").
	KindBadSample Kind = "ild_bad_sample"
	// KindSensorFault: a scheduled fault window on the current sensor
	// opened or closed (see internal/power faults). Fields: fault, phase
	// ("onset" or "clear").
	KindSensorFault Kind = "sensor_fault"
	// KindGuardMode: the guard supervisor moved ILD along its degradation
	// ladder (see internal/guard). Fields: from, to, reason.
	KindGuardMode Kind = "guard_mode_change"
	// KindBlindCycle: the guard supervisor commanded a precautionary
	// power cycle while the board could not observe its own current
	// (sensor unusable or ladder fully degraded). No fields; the
	// machine's own sel_clear/power-cycle telemetry records the effect.
	KindBlindCycle Kind = "guard_blind_cycle"
	// KindReplicaKill: the guard watchdog killed a hung or crashed EMR
	// replica visit. Fields: executor, dataset, cause.
	KindReplicaKill Kind = "replica_kill"
	// KindRedundancyMode: the guard watchdog changed the EMR redundancy
	// scheme (TMR → DMR+checksum → serial, or back on recovery). Fields:
	// from, to, executor.
	KindRedundancyMode Kind = "redundancy_mode_change"
	// KindBeaconMode: the downlink transmitter entered or left degraded
	// beacon mode (see internal/downlink). Fields: on, reason.
	KindBeaconMode Kind = "beacon_mode_change"
	// KindLinkFault: a scheduled downlink impairment or blackout window
	// opened or closed. Fields: window ("fault" or "blackout"), phase
	// ("onset" or "clear").
	KindLinkFault Kind = "link_fault"
	// KindOSFault: a scheduled OS-level fault window (kernel panic or
	// hang, IO error burst, scheduler stall, filesystem corruption)
	// opened or closed (see machine/osfault.go). Fields: fault, phase
	// ("onset" or "clear").
	KindOSFault Kind = "os_fault"
	// KindWatchdogReset: the hardware watchdog timer expired — the
	// kernel stopped petting it — and power cycled the board on its
	// own. No fields; the machine's power-cycle telemetry records the
	// effect.
	KindWatchdogReset Kind = "watchdog_reset"
	// KindHangCycle: the guard supervisor commanded a power cycle
	// because the kernel's counter surface wedged (zero instruction
	// progress with an exactly-repeated current reading for HangAfter
	// consecutive samples). No fields.
	KindHangCycle Kind = "guard_hang_cycle"
	// KindHeartbeatGap: consecutive telemetry samples arrived further
	// apart than the supervisor's HeartbeatTimeout — the board was
	// silent in between (kernel down until a watchdog reset). Fields:
	// gap_ns.
	KindHeartbeatGap Kind = "guard_heartbeat_gap"
	// KindMissionPhase: the mission tracker crossed a phase boundary
	// (see internal/mission). Fields: from, to, phase, seu_x, sel_x.
	KindMissionPhase Kind = "mission_phase"
	// KindAdaptLevel: the adaptive-protection controller moved along
	// its posture ladder (see internal/adapt). Fields: from, to,
	// score, reason.
	KindAdaptLevel Kind = "adapt_level_change"
)

// Event is one structured observation. T is simulated time (offset from
// simulation start) when the emitter runs in a simulation, so event logs
// are reproducible run to run; emitters outside a simulation may leave
// it zero. Fields carry small scalar context; keep values to strings,
// integers, and floats so JSON snapshots stay stable.
type Event struct {
	Seq    uint64         `json:"seq"`
	T      time.Duration  `json:"t_ns"`
	Kind   Kind           `json:"kind"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Ring is a bounded event buffer: appends are O(1), and once full the
// oldest event is overwritten (flight telemetry keeps the most recent
// history — the interesting window is always the one before the
// anomaly). Safe for concurrent use.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int // index of the slot the next append writes
	full    bool
	seq     uint64
	dropped uint64
}

// NewRing returns a ring holding up to cap events. cap must be positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		//radlint:allow nopanic ring capacity comes from compile-time defaults; zero is a build bug
		panic("telemetry: NewRing capacity must be positive")
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Append records ev, assigning it the next sequence number. When the
// ring is full the oldest event is dropped (and counted).
func (r *Ring) Append(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = r.seq
	r.seq++
	if !r.full {
		r.buf = append(r.buf, ev)
		if len(r.buf) == cap(r.buf) {
			r.full = true
			r.next = 0
		}
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Events returns the buffered events oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// Len returns how many events are currently buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
