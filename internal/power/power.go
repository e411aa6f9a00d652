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

// Model converts a BoardState into the board's true (noise-free) current.
type Model struct {
	p Params
}

// NewModel returns a Model with the given coefficients.
func NewModel(p Params) *Model { return &Model{p: p} }

// TrueCurrent returns the physical current draw in amps for the state.
// Every product that feeds a sum is converted explicitly, so no compiler
// fuses it into a multiply-add (DESIGN.md §9).
func (m *Model) TrueCurrent(s BoardState) float64 {
	cur := m.p.IdleCurrentA
	for _, c := range s.Cores {
		ghz := c.FreqHz / 1e9
		cur += float64(c.Util * ghz * (m.p.CoreAPerGHz + float64(m.p.IPCAPerGHz*c.IPC)))
	}
	cur += float64(s.DRAMBytesPerSec / 1e9 * m.p.DRAMAPerGBps)
	cur += float64(s.DiskSectorsPerSec / 1e3 * m.p.DiskAPerKSectors)
	return cur
}

// Sensor is the current-measurement device (INA3221-class). It adds the
// SEL offset injected by the fault layer, Gaussian noise, and transient
// spikes. A deterministic seed keeps experiments reproducible: the noise
// stream is math/rand's stream for the seed, drawn through alfg.Source.
type Sensor struct {
	model      *Model
	rng        *alfg.Source
	noise      alfg.Noise // the model's noise parameters, for rng.MinReading
	seed       int64
	selOffset  float64
	baseOffset float64 // thermal-drift offset, updated by the machine

	// Sensor-fault state (see faults.go). now is the simulated instant,
	// advanced by the machine; lastHealthy freezes the stuck-at value;
	// analogRaw carries the most recent pre-fault raw reading for the
	// supply's independent analog trip comparator; frng feeds garbage
	// values without perturbing the nominal noise stream.
	faults      []SensorFault
	now         time.Duration
	lastHealthy float64
	haveHealthy bool
	analogRaw   float64
	frng        *rand.Rand
}

// spikeMinA is the smallest transient spike: spikes are uniform in
// [spikeMinA, Params.SpikeMaxA).
const spikeMinA = 0.05

// SetBaselineOffset installs the current thermal-drift offset. The
// machine recomputes it from simulated time each step.
func (s *Sensor) SetBaselineOffset(amps float64) { s.baseOffset = amps }

// NewSensor returns a sensor over the model with a deterministic RNG.
func NewSensor(model *Model, seed int64) *Sensor {
	p := &model.p
	return &Sensor{model: model, rng: alfg.New(seed), seed: seed, noise: alfg.Noise{
		Sigma:     p.NoiseSigmaA,
		SpikeProb: p.SpikeProb,
		SpikeLo:   spikeMinA,
		SpikeSpan: p.SpikeMaxA - spikeMinA,
	}}
}

// SetSELOffset installs a persistent additional current draw, the
// signature of a (micro-)latchup. A power cycle clears it (see machine).
func (s *Sensor) SetSELOffset(amps float64) { s.selOffset = amps }

// TrueCurrentFrom returns the noise-free current: modelCur, the board
// model's current (Model.TrueCurrent), plus any SEL offset and the
// present thermal-drift offset. The machine's sampling loop computes the
// model term once per electrical state change (it only moves when a
// trace segment or DVFS point changes) instead of re-walking the core
// array on every draw — the measured per-sample hot spot the campaign
// scheduler work removed (see PERFORMANCE.md).
func (s *Sensor) TrueCurrentFrom(modelCur float64) float64 {
	return modelCur + s.selOffset + s.baseOffset
}

// SampleFrom returns one raw sensor reading around modelCur, the board
// model's current: true current + SEL offset + Gaussian noise, possibly
// landing on a transient spike, clamped at zero, then passed through the
// active sensor-fault model (identity when healthy).
//
// A reading draws one normal value, one uniform value for the spike
// test, and one more uniform on a spike, in that order (alfg.Noise and
// MinReading spell it out). That consumption order is part of the
// repository's determinism contract: experiment goldens replay these
// exact streams.
func (s *Sensor) SampleFrom(modelCur float64) float64 {
	h := s.rng.MinReading(s.TrueCurrentFrom(modelCur), s.noise, 1)
	s.analogRaw = h
	return s.applyFault(h)
}

// AnalogRaw returns the healthy raw value behind the most recent
// SampleFrom call. The power supply's own over-current comparator is an analog
// circuit wired to the shunt directly — a digital sensor fault (stuck
// register, dead I2C bus) does not blind it — so the machine's supply
// trip path reads this instead of the possibly-faulted sample.
func (s *Sensor) AnalogRaw() float64 { return s.analogRaw }

// SampleFilteredFrom returns the minimum of k raw readings around
// modelCur (k < 1 counts as 1), modelling ILD's ±250 µs rolling-minimum
// filter: transient spikes are positive excursions, so the windowed
// minimum tracks the true baseline with far lower variance (paper: σ
// 0.14 A → 0.02 A during quiescence). The fault model transforms the
// filtered result: a stuck or dead ADC corrupts every draw in the window
// identically. The noise-free current is the same for all k readings, so
// it is evaluated once, and the k readings run in one MinReading loop.
func (s *Sensor) SampleFilteredFrom(modelCur float64, k int) float64 {
	return s.applyFault(s.rng.MinReading(s.TrueCurrentFrom(modelCur), s.noise, max(k, 1)))
}
