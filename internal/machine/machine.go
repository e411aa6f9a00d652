package machine

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/power"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
)

// Config describes the board.
type Config struct {
	Cores       int
	Power       power.Params
	SensorSeed  int64
	SampleEvery time.Duration // telemetry cadence (paper: 1 ms)
	FilterK     int           // raw draws folded into the rolling-min filtered reading
	// WatchdogTimeout arms a hardware watchdog timer: when the kernel
	// stops petting it for this long (a scheduled kernel panic or hang —
	// see osfault.go), the timer power cycles the board on its own.
	// Zero (the default) leaves the watchdog unfitted, the
	// pre-Trikarenos COTS baseline.
	WatchdogTimeout time.Duration
	// Telemetry, when non-nil, receives the machine's counters, gauges
	// and SEL lifecycle events (see TELEMETRY.md). Nil disables
	// instrumentation.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the Pi-Zero-2W-class board of the paper's SEL
// testbed: 4 cores, 1 ms sampling, min-of-5 filter.
func DefaultConfig() Config {
	return Config{
		Cores:       4,
		Power:       power.DefaultParams(),
		SensorSeed:  1,
		SampleEvery: time.Millisecond,
		FilterK:     5,
	}
}

// SELDamageAfter is how long an uncleared latchup takes to destroy the
// chip (paper: ≈5 minutes of localized heating).
const SELDamageAfter = 5 * time.Minute

// The board's fixed electrical design.
const (
	// MinFreqHz and MaxFreqHz are the cores' DVFS range. When a trace
	// segment does not pin a frequency, an ondemand governor makes each
	// core's frequency track its utilisation within it.
	MinFreqHz = 600e6
	MaxFreqHz = 1.4e9
	// supplyVoltage is used for energy integration (W = V·I).
	supplyVoltage = 5.0
	// The power supply's own over-current protection (paper §3.1:
	// "larger current spikes on the order of 1A are already addressed
	// by additional thresholding circuitry"): when tripSustain of
	// consecutive samples exceed supplyTripA, the supply power cycles
	// the board on its own. It catches classic ampere-scale latchups;
	// micro-SELs sail under it — that gap is ILD's whole reason to
	// exist. The integrating comparator ignores microsecond transients,
	// and the trip level sits above the ≈4.5 A full-load envelope
	// (unlike the naive 4 A example threshold of the paper's Figure 2,
	// which full compute load crosses legitimately), or the supply would
	// reboot the board on every heavy burst.
	supplyTripA = 6.0
	tripSustain = 50 * time.Millisecond
)

// CoreTelemetry carries the per-core counter rates of one sample interval
// — the paper's Table 1 feature set.
type CoreTelemetry struct {
	InstrPerSec     float64
	BusCyclesPerSec float64
	FreqHz          float64
	BranchMissRate  float64 // misses per instruction over the interval
	CacheHitRate    float64 // hits per reference over the interval
}

// Telemetry is one sample of the machine's OS-visible state plus the
// measured current.
type Telemetry struct {
	T               time.Duration // simulated timestamp
	CurrentA        float64       // rolling-min filtered sensor reading
	RawA            float64       // single unfiltered reading (for comparison)
	PerCore         []CoreTelemetry
	DiskReadPerSec  float64
	DiskWritePerSec float64
}

// TotalInstrPerSec sums instruction rates across cores — the CPU-load
// proxy ILD's quiescence detector uses.
func (t Telemetry) TotalInstrPerSec() float64 {
	var sum float64
	for _, c := range t.PerCore {
		sum += c.InstrPerSec
	}
	return sum
}

// Machine is the simulated board.
type Machine struct {
	cfg    Config
	now    time.Duration // simulated time since the board started
	cores  []*cpu.Core
	sensor *power.Sensor

	// state and modelCurA cache the electrical view of the board. The
	// board's electrical state only moves when a trace segment or a DVFS
	// point is applied (ApplySegment, PowerCycle), never during Step or
	// sample, so the sampling loop reuses one BoardState and one
	// precomputed model current instead of rebuilding both on every draw
	// — the dominant allocation site of every campaign before the
	// scheduler perf work (see PERFORMANCE.md).
	state     power.BoardState
	modelCurA float64
	// driftA is the thermal-drift offset of the board's current, which
	// Step recomputes from simulated time.
	driftA float64

	// runPerCore is the one PerCore buffer RunTrace samples into: its
	// callback sees each sample only until it returns, so the loop reuses
	// it instead of allocating.
	runPerCore []CoreTelemetry

	// tripNeed is tripSustain in samples, at least 1.
	tripNeed int
	// sampleSec is Config.SampleEvery in seconds. Step and sample use it
	// whenever their interval is one sampling period, as nearly all are,
	// instead of converting the interval again.
	sampleSec float64

	diskReadRate  float64 // sectors/s, from the current segment
	diskWriteRate float64
	dramRate      float64 // bytes/s aggregate, derived from core loads

	lastCounters  []cpu.Counters
	lastDiskR     float64 // cumulative sectors at last sample
	lastDiskW     float64
	lastDiskRateR float64 // last reported rates; a hung kernel latches these
	lastDiskRateW float64
	cumDiskR      float64
	cumDiskW      float64
	lastSample    time.Duration

	selAmps     float64
	selSince    time.Duration
	damaged     bool
	powerCycles int

	faultActive power.FaultKind

	// OS-level fault state (see osfault.go).
	osFaults       []OSFault
	osSpent        []bool                // power cycle consumed the window
	osActive       [numOSFaultKinds]bool // per-kind, for onset/clear events
	lastPet        time.Duration         // last healthy watchdog pet
	watchdogResets int
	iorng          *rand.Rand // IO-error stream, lazily seeded
	ioErrors       int
	lastRawA       float64 // last reported sensor readings; a hung
	lastCurA       float64 // kernel's reads latch these

	tripConsecutive int

	energyJ float64

	ins *instruments
}

// New returns a machine for the config. Invalid configs panic: the
// machine is constructed once per experiment from trusted code.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		//radlint:allow nopanic machine config comes from trusted experiment code; documented panic contract
		panic(fmt.Sprintf("machine: Cores = %d, want > 0", cfg.Cores))
	}
	if cfg.SampleEvery <= 0 {
		//radlint:allow nopanic machine config comes from trusted experiment code; documented panic contract
		panic("machine: SampleEvery must be positive")
	}
	if cfg.FilterK < 1 {
		cfg.FilterK = 1
	}
	m := &Machine{
		cfg:          cfg,
		sensor:       power.NewSensor(cfg.Power, cfg.SensorSeed),
		lastCounters: make([]cpu.Counters, cfg.Cores),
		runPerCore:   make([]CoreTelemetry, cfg.Cores),
		tripNeed:     max(int(tripSustain/cfg.SampleEvery), 1),
		sampleSec:    cfg.SampleEvery.Seconds(),
		ins:          newInstruments(cfg.Telemetry),
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, cpu.NewCore(i, MinFreqHz))
	}
	m.state.Cores = make([]power.CoreState, cfg.Cores)
	m.refreshElectricalState()
	return m
}

// refreshElectricalState recomputes the cached BoardState and model
// current. Call after any change to core loads, DVFS points, or IO rates
// (ApplySegment, PowerCycle).
func (m *Machine) refreshElectricalState() {
	for i, c := range m.cores {
		l := c.Load()
		m.state.Cores[i] = power.CoreState{FreqHz: c.FreqHz(), Util: l.Util, IPC: l.IPC}
	}
	m.state.DRAMBytesPerSec = m.dramRate
	m.state.DiskSectorsPerSec = m.diskReadRate + m.diskWriteRate
	m.modelCurA = m.cfg.Power.TrueCurrent(m.state)
}

// trueCurrentA is the board's noise-free current: the model's, plus any
// latchup and the thermal drift.
func (m *Machine) trueCurrentA() float64 { return m.modelCurA + m.selAmps + m.driftA }

// Now reports the board's simulated time since it started. It moves
// only when Step advances it, so two runs that step alike read alike.
func (m *Machine) Now() time.Duration { return m.now }

// Sensor exposes the current sensor, to schedule its faults (the fault
// layer injects SELs through the machine, not the sensor).
func (m *Machine) Sensor() *power.Sensor { return m.sensor }

// InjectSEL adds a persistent latchup current of the given magnitude.
// Injecting while one is active stacks (multiple strikes). A latchup is
// extra current by definition, so non-positive or non-finite magnitudes
// are rejected with an error.
func (m *Machine) InjectSEL(amps float64) error {
	if math.IsNaN(amps) || math.IsInf(amps, 0) {
		return fmt.Errorf("machine: InjectSEL: non-finite amps %v", amps)
	}
	if amps <= 0 {
		return fmt.Errorf("machine: InjectSEL: amps = %v, want > 0", amps)
	}
	if m.selAmps == 0 {
		m.selSince = m.now
	}
	m.selAmps += amps
	m.ins.selOnset(m.now, amps)
	return nil
}

// SELActive reports whether an uncleared latchup is present.
func (m *Machine) SELActive() bool { return m.selAmps > 0 }

// Damaged reports whether an SEL has persisted past the thermal damage
// horizon — mission over for this computer.
func (m *Machine) Damaged() bool { return m.damaged }

// PowerCycles returns how many power cycles were commanded.
func (m *Machine) PowerCycles() int { return m.powerCycles }

// PowerCycle clears any latchup (the paper: power cycles, unlike reboots,
// drain the residual charge) and restarts the counters. The supply's own
// trip integrator resets too: its comparator loses power with the rest
// of the rail, so a partially-accumulated trip does not survive into the
// fresh boot. Accumulated damage is permanent.
func (m *Machine) PowerCycle() {
	now := m.now
	m.powerCycles++
	m.ins.powerCycle()
	if m.selAmps > 0 {
		m.ins.selClear(now, "power_cycle")
	}
	m.selAmps = 0
	m.tripConsecutive = 0
	// A fresh boot clears whatever kernel-dead state held the board:
	// the panic/hang window is spent and cannot re-trigger, and the
	// watchdog pets restart immediately.
	for i, f := range m.osFaults {
		if m.osSpent[i] || f.Start > now {
			continue
		}
		if f.Kind == OSFaultKernelPanic || f.Kind == OSFaultKernelHang {
			m.osSpent[i] = true
		}
	}
	m.lastPet = now
	for i, c := range m.cores {
		c.SetLoad(cpu.IdleLoad)
		m.lastCounters[i] = c.Counters()
	}
	m.refreshElectricalState()
}

// ApplySegment installs a trace segment's activity onto the cores and IO
// rates.
func (m *Machine) ApplySegment(s trace.Segment) {
	m.dramRate = 0
	for i, c := range m.cores {
		var load cpu.Load
		if i < len(s.Loads) {
			load = s.Loads[i]
		}
		c.SetLoad(load)
		// The governor and the DRAM rate see the load the core runs:
		// clamped to physical ranges, with non-finite fields at 0.
		load = c.Load()
		m.dramRate += load.MemBytesPerSec
		if s.FreqHz > 0 {
			c.SetFreqHz(clampF(s.FreqHz, MinFreqHz, MaxFreqHz))
		} else {
			// ondemand: frequency tracks utilisation.
			c.SetFreqHz(MinFreqHz + float64(load.Util*(MaxFreqHz-MinFreqHz)))
		}
	}
	m.diskReadRate = s.DiskReadPerSec
	m.diskWriteRate = s.DiskWritePerSec
	m.refreshElectricalState()
}

// Step advances the machine by dt: core counters, disk IO accumulation,
// energy integration, thermal damage tracking, and the simulated clock.
// Products that feed a sum are converted explicitly (float64(...)), so
// no compiler fuses them into a multiply-add (DESIGN.md §9).
func (m *Machine) Step(dt time.Duration) {
	if dt <= 0 {
		return
	}
	sec := m.sampleSec
	if dt != m.cfg.SampleEvery {
		sec = dt.Seconds()
	}
	if !m.osActive[OSFaultKernelPanic] {
		for _, c := range m.cores {
			c.StepSeconds(sec)
		}
		m.cumDiskR += float64(m.diskReadRate * sec)
		m.cumDiskW += float64(m.diskWriteRate * sec)
	}
	// The rail stays powered through a panic: energy keeps integrating
	// and an uncleared latchup keeps heating toward the damage horizon.
	m.energyJ += float64(m.trueCurrentA() * supplyVoltage * sec)
	m.now += dt
	now := m.now
	m.updateOSFaults(now)
	// Orbital thermal cycle: the current baseline drifts sinusoidally
	// with board temperature, invisibly to the performance counters.
	if p := &m.cfg.Power; p.ThermalDriftA > 0 && p.ThermalDriftPeriodSec > 0 {
		phase := 2 * math.Pi * now.Seconds() / p.ThermalDriftPeriodSec
		m.driftA = p.ThermalDriftA * sin(phase)
	}
	if m.selAmps > 0 && now-m.selSince >= SELDamageAfter && !m.damaged {
		m.damaged = true
		m.ins.damage(now)
	}
}

// sample takes one sample over the interval since the previous one: it
// fills pc, one entry per core, and returns the Telemetry carrying it.
//
// It runs once per simulated millisecond, so it copies no struct: each
// counter delta is a scalar, each rate is stored into pc field by field,
// and the Telemetry is assembled from scalars only at the return. A
// struct copy goes through the stack with 16-byte moves, which stall
// when they read the 8-byte stores that just filled the struct.
func (m *Machine) sample(pc []CoreTelemetry) Telemetry {
	now := m.now
	interval := now - m.lastSample
	sec := m.sampleSec
	if interval != m.cfg.SampleEvery {
		sec = interval.Seconds()
		if sec <= 0 {
			sec = m.sampleSec // degenerate: avoid div-by-zero
		}
	}
	hung := m.osActive[OSFaultKernelHang]
	for i, c := range m.cores {
		ct := &pc[i]
		ct.FreqHz = c.FreqHz()
		if hung {
			// A wedged kernel's counter reads latch the old values, so
			// every delta is zero and the cursor stays put: the first
			// sample after the hang catches up at once.
			ct.InstrPerSec, ct.BusCyclesPerSec, ct.BranchMissRate, ct.CacheHitRate = 0, 0, 0, 0
			continue
		}
		instr, bus, misses, refs, hits := c.ReadSince(&m.lastCounters[i])
		ct.InstrPerSec = float64(instr) / sec
		ct.BusCyclesPerSec = float64(bus) / sec
		ct.BranchMissRate = 0
		if instr > 0 {
			ct.BranchMissRate = float64(misses) / float64(instr)
		}
		ct.CacheHitRate = 0
		if refs > 0 {
			ct.CacheHitRate = float64(hits) / float64(refs)
		}
	}
	var diskR, diskW float64
	if hung {
		// /proc/diskstats reads stall too: rates latch, and the counter
		// cursor stays put so the post-hang sample catches up at once.
		diskR, diskW = m.lastDiskRateR, m.lastDiskRateW
	} else {
		diskR = (m.cumDiskR - m.lastDiskR) / sec
		diskW = (m.cumDiskW - m.lastDiskW) / sec
		m.lastDiskR, m.lastDiskW = m.cumDiskR, m.cumDiskW
		m.lastDiskRateR, m.lastDiskRateW = diskR, diskW
	}
	m.lastSample = now

	r := m.sensor.Read(m.trueCurrentA(), now, m.cfg.FilterK)
	rawA, currentA := r.RawA, r.FilteredA
	if hung {
		// A hung kernel's I2C transactions stall: reads return the last
		// latched register values. The draws above still burn so the
		// noise stream stays aligned with the healthy timeline.
		rawA, currentA = m.lastRawA, m.lastCurA
	} else {
		m.lastRawA, m.lastCurA = rawA, currentA
	}

	if r.Fault != m.faultActive {
		m.ins.sensorFault(now, m.faultActive, r.Fault)
		m.faultActive = r.Fault
	}

	// The supply's own over-current circuit is an analog comparator wired
	// to the shunt directly, so it sees the healthy raw reading even when
	// the digital sensor path is faulted; it power cycles the board after
	// a sustained excess. With no sensor fault active AnalogA equals RawA
	// exactly.
	if r.AnalogA > supplyTripA {
		m.tripConsecutive++
	} else {
		m.tripConsecutive = 0
	}
	if m.tripConsecutive >= m.tripNeed {
		m.tripConsecutive = 0
		m.ins.supplyTrip(now)
		m.PowerCycle()
	}
	m.ins.sample(currentA, m.energyJ)
	return Telemetry{T: now, CurrentA: currentA, RawA: rawA, PerCore: pc,
		DiskReadPerSec: diskR, DiskWritePerSec: diskW}
}

// RunTrace plays a trace through the machine at the telemetry cadence,
// invoking onSample for every sample. onSample may be nil. It returns the
// number of samples taken.
//
// Every sample's PerCore is the same machine-owned buffer, rewritten by
// the next sample: it is valid only until onSample returns. A callback
// that keeps samples must copy PerCore.
//
// The callback may call PowerCycle or InjectSEL; segment activity
// continues unchanged (a latchup does not stop the workload).
func (m *Machine) RunTrace(tr *trace.Trace, onSample func(Telemetry)) int {
	samples := 0
	pending := time.Duration(0) // time since last sample
	for _, seg := range tr.Segments {
		m.ApplySegment(seg)
		remaining := seg.Duration
		for remaining > 0 {
			step := m.cfg.SampleEvery - pending
			if step > remaining {
				step = remaining
			}
			m.Step(step)
			pending += step
			remaining -= step
			if pending >= m.cfg.SampleEvery {
				pending = 0
				if m.osActive[OSFaultKernelPanic] {
					continue // a panicked kernel runs no sampler
				}
				samples++
				tel := m.sample(m.runPerCore)
				if onSample != nil {
					onSample(tel)
				}
			}
		}
	}
	return samples
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
