package power

import (
	"math/rand"
	"time"

	"radshield/internal/alfg"
)

// Params are the coefficients of the board current model and sensor.
type Params struct {
	// IdleCurrentA is the board draw with all cores idle (regulators,
	// radios disabled but SoC powered).
	IdleCurrentA float64
	// CoreAPerGHz is amps one core adds per GHz at Util=1, IPC-independent
	// part (clock tree, fetch).
	CoreAPerGHz float64
	// IPCAPerGHz is additional amps per GHz per unit of IPC (execution
	// units switching).
	IPCAPerGHz float64
	// DRAMAPerGBps is amps the memory system adds per GB/s of traffic.
	DRAMAPerGBps float64
	// DiskAPerKSectors is amps the storage device adds per 1000 sectors/s.
	DiskAPerKSectors float64
	// NoiseSigmaA is the Gaussian measurement noise of the current sensor.
	NoiseSigmaA float64
	// SpikeProb is the probability that any raw sensor draw lands on a
	// microsecond-scale transient spike (power-state switches, interrupt
	// bursts).
	SpikeProb float64
	// SpikeMaxA is the maximum transient spike amplitude; spikes are
	// uniform in (0.05, SpikeMaxA].
	SpikeMaxA float64
	// TripThresholdA is the supply's hardware over-current trip (the
	// paper's Figure 2 draws it at 4 A); it catches classic ampere-scale
	// latchups but never micro-SELs.
	TripThresholdA float64
	// ThermalDriftA is the amplitude of the slow sinusoidal baseline
	// drift caused by the orbital thermal cycle (sun/eclipse): regulator
	// efficiency and leakage currents track board temperature. The drift
	// is invisible to performance counters, which is what defeats
	// black-box detectors trained on absolute current.
	ThermalDriftA float64
	// ThermalDriftPeriodSec is the drift period (a LEO orbit ≈ 90 min).
	ThermalDriftPeriodSec float64
}

// DefaultParams returns coefficients calibrated so a 4-core, 1.4 GHz
// board reproduces the paper's observed envelope (≈1.55 A quiescent,
// ≈4.3–4.5 A at full compute load, raw quiescent σ ≈ 0.14 A).
func DefaultParams() Params {
	return Params{
		IdleCurrentA:          1.55,
		CoreAPerGHz:           0.35,
		IPCAPerGHz:            0.06,
		DRAMAPerGBps:          0.05,
		DiskAPerKSectors:      0.05,
		NoiseSigmaA:           0.02,
		SpikeProb:             0.025,
		SpikeMaxA:             1.0,
		TripThresholdA:        4.0,
		ThermalDriftA:         0.012,
		ThermalDriftPeriodSec: 5400, // one LEO orbit
	}
}

// CoreState is the electrical view of one core.
type CoreState struct {
	FreqHz float64
	Util   float64
	IPC    float64
}

// BoardState is the electrical view of the whole board at an instant.
type BoardState struct {
	Cores             []CoreState
	DRAMBytesPerSec   float64
	DiskSectorsPerSec float64
}

// TrueCurrent returns the physical current draw in amps for the state.
// Every product that feeds a sum is converted explicitly, so no compiler
// fuses it into a multiply-add (DESIGN.md §9).
func (p Params) TrueCurrent(s BoardState) float64 {
	cur := p.IdleCurrentA
	for _, c := range s.Cores {
		ghz := c.FreqHz / 1e9
		cur += float64(c.Util * ghz * (p.CoreAPerGHz + float64(p.IPCAPerGHz*c.IPC)))
	}
	cur += float64(s.DRAMBytesPerSec / 1e9 * p.DRAMAPerGBps)
	cur += float64(s.DiskSectorsPerSec / 1e3 * p.DiskAPerKSectors)
	return cur
}

// Sensor is the current-measurement device (INA3221-class). It adds
// Gaussian noise and transient spikes to the board's true current and
// passes each reading through its scheduled faults. A deterministic
// seed keeps experiments reproducible: the noise stream is math/rand's
// stream for the seed, drawn through alfg.Source.
type Sensor struct {
	rng   *alfg.Source
	noise alfg.Noise // the model's noise parameters, for rng.MinReading
	seed  int64

	// Sensor-fault state (see faults.go). lastHealthy is the last
	// healthy filtered reading, the value a stuck fault freezes; frng
	// feeds garbage values without perturbing the nominal noise stream.
	faults      []SensorFault
	lastHealthy float64
	haveHealthy bool
	frng        *rand.Rand
}

// spikeMinA is the smallest transient spike: spikes are uniform in
// [spikeMinA, Params.SpikeMaxA).
const spikeMinA = 0.05

// NewSensor returns a sensor with p's noise model and a deterministic
// RNG.
func NewSensor(p Params, seed int64) *Sensor {
	return &Sensor{rng: alfg.New(seed), seed: seed, noise: alfg.Noise{
		Sigma:     p.NoiseSigmaA,
		SpikeProb: p.SpikeProb,
		SpikeLo:   spikeMinA,
		SpikeSpan: p.SpikeMaxA - spikeMinA,
	}}
}

// Reading is one sample of the sensor.
type Reading struct {
	// RawA is a single unfiltered reading and FilteredA the rolling
	// minimum; both have passed through the active fault.
	RawA, FilteredA float64
	// AnalogA is RawA before the fault. The power supply's own
	// over-current comparator is an analog circuit wired to the shunt
	// directly, so a digital sensor fault (stuck register, dead I2C bus)
	// does not blind it: the machine's supply trip reads this.
	AnalogA float64
	// Fault is the kind of the fault active at the reading, FaultNone
	// when the sensor is healthy.
	Fault FaultKind
}

// Read samples the sensor at simulated instant now on a board whose
// noise-free current is trueA (the machine sums the board model's
// current, any latchup and the thermal drift).
//
// It takes one raw reading, then the minimum of k readings (k < 1 counts
// as 1), which models ILD's ±250 µs rolling-minimum filter: transient
// spikes are positive excursions, so the windowed minimum tracks the
// true baseline with far lower variance (paper: σ 0.14 A → 0.02 A
// during quiescence). A reading is true current plus Gaussian noise,
// possibly landing on a transient spike, clamped at zero. It draws one
// normal value, one uniform value for the spike test, and one more
// uniform on a spike, in that order (alfg.Noise and MinReading spell it
// out); the raw reading draws before the window, which runs as one
// MinReading loop. That consumption order is part of the repository's
// determinism contract: experiment goldens replay these exact streams.
//
// The fault active at now transforms the raw reading and then the
// filtered one (a stuck or dead ADC corrupts every draw in the window
// identically, so the window's result is faulted once).
func (s *Sensor) Read(trueA float64, now time.Duration, k int) Reading {
	raw := s.rng.MinReading(trueA, s.noise, 1)
	filtered := s.rng.MinReading(trueA, s.noise, max(k, 1))
	f := s.activeFault(now)
	if f == nil {
		s.lastHealthy, s.haveHealthy = filtered, true
		return Reading{RawA: raw, FilteredA: filtered, AnalogA: raw}
	}
	return Reading{RawA: s.applyFault(f, raw), FilteredA: s.applyFault(f, filtered), AnalogA: raw, Fault: f.Kind}
}
