package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file holds the OS-level fault models: deterministic, schedulable
// failures of the kernel under Radshield rather than of the workload or
// the sensor. "Where Linux Breaks Under Radiation" (PAPERS.md)
// characterizes proton-induced *kernel* failures — panics, hangs,
// syscall/IO error storms — as the dominant class on COTS SoCs, and
// Trikarenos (PAPERS.md) shows hardware-watchdog reset is the recovery
// path fault-tolerant SoCs rely on. These models extend the board with
// exactly that failure surface plus the watchdog that answers it.

// OSFaultKind classifies an OS-level fault model.
type OSFaultKind int

const (
	// OSFaultNone is the healthy kernel.
	OSFaultNone OSFaultKind = iota
	// OSFaultKernelPanic is a whole-board stop: no core progress, no
	// sensor samples, no IO — nothing runs until the hardware watchdog
	// (Config.WatchdogTimeout) fires a power cycle, or an external
	// controller cycles the rail. A panic never times out on its own;
	// ScheduleOSFault rejects a non-zero Duration.
	OSFaultKernelPanic
	// OSFaultKernelHang is a wedged-but-powered kernel: the sampling
	// loop keeps running, but every syscall-backed read (perf counters,
	// the I2C current sensor, disk stats) returns its last latched
	// value. The analog supply-trip comparator, wired to the shunt in
	// hardware, keeps seeing true current. The watchdog-pet thread
	// stalls with the rest of the kernel, so a configured hardware
	// watchdog eventually resets a hung board too.
	OSFaultKernelHang
	// OSFaultIOErrorBurst is a windowed syscall/IO error storm: while
	// the window is open, each IOCheck call fails with probability
	// ErrorRate (a seeded stream independent of the sensor's draws).
	OSFaultIOErrorBurst
	// OSFaultSchedulerStall starves one EMR executor: the machine only
	// tracks the window (OSFaultActive); the campaign layer picks the
	// executor and feeds the stall into its visits via the EMR hook.
	OSFaultSchedulerStall
	// OSFaultFSCorruption is a window during which the recorder's
	// persisted NVRAM page is damaged (torn writes, bit flips). The
	// machine tracks the window; the downlink layer applies the damage
	// (downlink.CorruptSnapshot) and must detect it on restore.
	OSFaultFSCorruption

	numOSFaultKinds // array-sizing sentinel; keep last
)

// String names the fault kind for tables and telemetry fields.
func (k OSFaultKind) String() string {
	switch k {
	case OSFaultNone:
		return "none"
	case OSFaultKernelPanic:
		return "kernel_panic"
	case OSFaultKernelHang:
		return "kernel_hang"
	case OSFaultIOErrorBurst:
		return "io_error_burst"
	case OSFaultSchedulerStall:
		return "scheduler_stall"
	case OSFaultFSCorruption:
		return "fs_corruption"
	default:
		return "unknown"
	}
}

// osFaultIDs maps the short class ids used on CLI flags to kinds.
// ParseOSFaultKind's error text enumerates them; keep the two in sync.
var osFaultIDs = []struct {
	id   string
	kind OSFaultKind
}{
	{"panic", OSFaultKernelPanic},
	{"hang", OSFaultKernelHang},
	{"ioburst", OSFaultIOErrorBurst},
	{"schedstall", OSFaultSchedulerStall},
	{"fscorrupt", OSFaultFSCorruption},
}

// ParseOSFaultKind resolves a CLI fault-class id ("panic", "hang",
// "ioburst", "schedstall", "fscorrupt") to its kind. Unknown ids get an
// error listing the valid set.
func ParseOSFaultKind(s string) (OSFaultKind, error) {
	for _, e := range osFaultIDs {
		if s == e.id {
			return e.kind, nil
		}
	}
	return OSFaultNone, fmt.Errorf("machine: unknown OS fault class %q (valid: panic, hang, ioburst, schedstall, fscorrupt)", s)
}

// OSFault is one scheduled OS-level fault window, in simulated time. A
// zero Duration means the fault is permanent once it starts; kernel
// panics and hangs additionally never expire on their own — only a
// power cycle (watchdog or commanded) clears them, after which the
// window is spent and does not re-trigger.
type OSFault struct {
	Kind     OSFaultKind
	Start    time.Duration
	Duration time.Duration
	// ErrorRate is the per-call failure probability of IOCheck during
	// an OSFaultIOErrorBurst window, in (0, 1]. Other kinds must leave
	// it zero.
	ErrorRate float64
}

// activeAt reports whether the fault covers instant now. Spent windows
// are filtered by the caller (the machine tracks spent state).
func (f OSFault) activeAt(now time.Duration) bool {
	if f.Kind == OSFaultNone || now < f.Start {
		return false
	}
	if f.Kind == OSFaultKernelPanic || f.Kind == OSFaultKernelHang {
		// Kernel-dead states never expire on a timer: only a power
		// cycle revives the board (the cycle marks the window spent).
		return true
	}
	return f.Duration <= 0 || now < f.Start+f.Duration
}

// ScheduleOSFault adds an OS-fault window to the machine's schedule.
func (m *Machine) ScheduleOSFault(f OSFault) error {
	switch f.Kind {
	case OSFaultKernelPanic, OSFaultKernelHang, OSFaultIOErrorBurst,
		OSFaultSchedulerStall, OSFaultFSCorruption:
	default:
		return fmt.Errorf("machine: ScheduleOSFault: invalid kind %d", int(f.Kind))
	}
	if f.Start < 0 {
		return fmt.Errorf("machine: ScheduleOSFault: negative start %v", f.Start)
	}
	if f.Duration < 0 {
		return fmt.Errorf("machine: ScheduleOSFault: negative duration %v", f.Duration)
	}
	if f.Kind == OSFaultKernelPanic && f.Duration != 0 {
		return fmt.Errorf("machine: ScheduleOSFault: a kernel panic holds until a power cycle; Duration must be 0, got %v", f.Duration)
	}
	if f.Kind == OSFaultIOErrorBurst {
		if !(f.ErrorRate > 0 && f.ErrorRate <= 1) {
			return fmt.Errorf("machine: ScheduleOSFault: ErrorRate %v must be in (0, 1]", f.ErrorRate)
		}
	} else if f.ErrorRate != 0 {
		return fmt.Errorf("machine: ScheduleOSFault: ErrorRate is only valid for %v", OSFaultIOErrorBurst)
	}
	m.osFaults = append(m.osFaults, f)
	m.osSpent = append(m.osSpent, false)
	return nil
}

// OSFaultActive returns the earliest-scheduled unspent fault of the
// given kind covering the present instant.
func (m *Machine) OSFaultActive(kind OSFaultKind) (OSFault, bool) {
	now := m.now
	for i, f := range m.osFaults {
		if f.Kind == kind && !m.osSpent[i] && f.activeAt(now) {
			return f, true
		}
	}
	return OSFault{}, false
}

// KernelHung reports whether the kernel is currently wedged: the board
// is powered and sampling, but syscall-backed reads return stale
// values.
func (m *Machine) KernelHung() bool { return m.osActive[OSFaultKernelHang] }

// WatchdogResets returns how many times the hardware watchdog timer
// expired and power cycled the board.
func (m *Machine) WatchdogResets() int { return m.watchdogResets }

// IOErrors returns how many IOCheck calls failed under error bursts.
func (m *Machine) IOErrors() int { return m.ioErrors }

// refreshOSActive recomputes the per-kind active flags and emits
// onset/clear telemetry edges.
func (m *Machine) refreshOSActive(now time.Duration) {
	var active [numOSFaultKinds]bool
	for i, f := range m.osFaults {
		if !m.osSpent[i] && f.activeAt(now) {
			active[f.Kind] = true
		}
	}
	for k := range active {
		if active[k] != m.osActive[k] {
			m.ins.osFault(now, OSFaultKind(k), active[k])
			m.osActive[k] = active[k]
		}
	}
}

// updateOSFaults advances the OS-fault state machine one step: refresh
// the active windows, pet the hardware watchdog while the kernel is
// alive, and fire a watchdog reset when the pets stop long enough.
// Zero-cost when no OS faults are scheduled.
func (m *Machine) updateOSFaults(now time.Duration) {
	if len(m.osFaults) == 0 {
		return
	}
	m.refreshOSActive(now)
	// The kernel's pet thread runs whenever the kernel is neither dead
	// nor hung, so a healthy board can never be watchdog-reset.
	if !m.osActive[OSFaultKernelPanic] && !m.osActive[OSFaultKernelHang] {
		m.lastPet = now
		return
	}
	if m.cfg.WatchdogTimeout > 0 && now-m.lastPet >= m.cfg.WatchdogTimeout {
		m.watchdogResets++
		m.ins.watchdogReset(now)
		m.PowerCycle() // marks the kernel fault spent and restarts the pets
		m.refreshOSActive(now)
	}
}

// ErrIO is the injected syscall failure IOCheck returns during an
// io_error_burst window. Callers match it with errors.Is.
var ErrIO = errors.New("machine: injected IO error")

// osFaultSeedSalt decorrelates the IO-error stream from the sensor's
// noise stream: both derive from SensorSeed, but scheduling an IO burst
// must never perturb the board's healthy draws.
const osFaultSeedSalt = 0x051f4

// IOCheck models one syscall on the flight software's IO path (an NVRAM
// page write, an EMR frontier read). During an active io_error_burst
// window it fails with the window's ErrorRate, drawing from a dedicated
// seeded stream; outside a window it always succeeds and consumes no
// randomness. A failed call returns ErrIO itself.
func (m *Machine) IOCheck() error {
	f, ok := m.OSFaultActive(OSFaultIOErrorBurst)
	if !ok {
		return nil
	}
	if m.iorng == nil {
		m.iorng = rand.New(rand.NewSource(m.cfg.SensorSeed + osFaultSeedSalt))
	}
	if m.iorng.Float64() >= f.ErrorRate {
		return nil
	}
	m.ioErrors++
	m.ins.osIOError()
	return ErrIO
}
