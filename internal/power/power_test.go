package power

import (
	"testing"

	"radshield/internal/stats"
)

func fullLoadState() BoardState {
	cores := make([]CoreState, 4)
	for i := range cores {
		cores[i] = CoreState{FreqHz: 1.4e9, Util: 1, IPC: 2.2}
	}
	return BoardState{Cores: cores, DRAMBytesPerSec: 1.6e9, DiskSectorsPerSec: 0}
}

func TestIdleCurrentMatchesCalibration(t *testing.T) {
	m := DefaultParams()
	idle := m.TrueCurrent(BoardState{Cores: make([]CoreState, 4)})
	if idle != DefaultParams().IdleCurrentA {
		t.Fatalf("idle current = %v, want %v", idle, DefaultParams().IdleCurrentA)
	}
}

func TestFullLoadWithinPaperEnvelope(t *testing.T) {
	// Paper: commodity ARM SoC ranges 1.7–4.5 A under load.
	m := DefaultParams()
	full := m.TrueCurrent(fullLoadState())
	if full < 4.0 || full > 4.6 {
		t.Fatalf("full-load current = %.3f A, want within [4.0, 4.6]", full)
	}
}

func TestCurrentMonotoneInActivity(t *testing.T) {
	m := DefaultParams()
	low := m.TrueCurrent(BoardState{Cores: []CoreState{{FreqHz: 1e9, Util: 0.2, IPC: 1}}})
	high := m.TrueCurrent(BoardState{Cores: []CoreState{{FreqHz: 1e9, Util: 0.9, IPC: 1}}})
	if high <= low {
		t.Fatalf("current not monotone in util: %v vs %v", low, high)
	}
	slow := m.TrueCurrent(BoardState{Cores: []CoreState{{FreqHz: 6e8, Util: 1, IPC: 1}}})
	fast := m.TrueCurrent(BoardState{Cores: []CoreState{{FreqHz: 1.4e9, Util: 1, IPC: 1}}})
	if fast <= slow {
		t.Fatalf("current not monotone in frequency: %v vs %v", slow, fast)
	}
}

func TestDiskAndDRAMContribute(t *testing.T) {
	m := DefaultParams()
	base := m.TrueCurrent(BoardState{})
	dram := m.TrueCurrent(BoardState{DRAMBytesPerSec: 2e9})
	disk := m.TrueCurrent(BoardState{DiskSectorsPerSec: 4000})
	if dram-base <= 0 || disk-base <= 0 {
		t.Fatalf("DRAM/disk contributions missing: base=%v dram=%v disk=%v", base, dram, disk)
	}
}

func TestSELOffsetVisibleInSamples(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigmaA, p.SpikeProb = 0, 0
	s := NewSensor(p, 1)
	want := DefaultParams().IdleCurrentA + 0.07
	r := s.Read(p.TrueCurrent(BoardState{Cores: make([]CoreState, 4)})+0.07, 0, 5)
	if r.RawA != want || r.FilteredA != want {
		t.Fatalf("readings with SEL = %v raw, %v filtered, want %v", r.RawA, r.FilteredA, want)
	}
}

func TestQuiescentSigmaCalibration(t *testing.T) {
	// Raw quiescent samples should show σ in the ~0.1–0.2 A range (the
	// paper reports 0.14 A); the min-of-5 filtered stream should drop to
	// ≈0.02 A (paper value after rolling min).
	p := DefaultParams()
	s := NewSensor(p, 42)
	state := BoardState{Cores: make([]CoreState, 4)}
	const n = 20000
	raw := make([]float64, n)
	filtered := make([]float64, n)
	for i := 0; i < n; i++ {
		r := s.Read(p.TrueCurrent(state), 0, 5)
		raw[i], filtered[i] = r.RawA, r.FilteredA
	}
	rawSigma := stats.StdDev(raw)
	filtSigma := stats.StdDev(filtered)
	if rawSigma < 0.08 || rawSigma > 0.25 {
		t.Errorf("raw quiescent σ = %.4f A, want ≈0.14 A", rawSigma)
	}
	if filtSigma > 0.03 {
		t.Errorf("filtered quiescent σ = %.4f A, want ≤0.03 A", filtSigma)
	}
	if filtSigma >= rawSigma {
		t.Errorf("filter did not reduce σ: raw %.4f vs filtered %.4f", rawSigma, filtSigma)
	}
}

func TestFilteredSampleResolvesMicroSEL(t *testing.T) {
	// The acid test of ILD's premise: a +0.07 A SEL must be clearly
	// separable from quiescent baseline in the filtered stream.
	p := DefaultParams()
	s := NewSensor(p, 7)
	idle := p.TrueCurrent(BoardState{Cores: make([]CoreState, 4)})
	const n = 3000
	baseline := make([]float64, n)
	for i := range baseline {
		baseline[i] = s.Read(idle, 0, 5).FilteredA
	}
	latched := make([]float64, n)
	for i := range latched {
		latched[i] = s.Read(idle+0.07, 0, 5).FilteredA
	}
	gap := stats.Mean(latched) - stats.Mean(baseline)
	if gap < 0.05 || gap > 0.09 {
		t.Fatalf("SEL-induced mean shift = %.4f A, want ≈0.07 A", gap)
	}
}

func TestSampleNeverNegative(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigmaA = 5 // absurd noise to force negative excursions
	s := NewSensor(p, 3)
	for i := 0; i < 1000; i++ {
		if r := s.Read(p.TrueCurrent(BoardState{}), 0, 5); r.RawA < 0 || r.FilteredA < 0 {
			t.Fatalf("negative sample: %+v", r)
		}
	}
}

func TestSampleFilteredDegenerateK(t *testing.T) {
	p := DefaultParams()
	s := NewSensor(p, 9)
	if v := s.Read(p.TrueCurrent(BoardState{}), 0, 0).FilteredA; v < 0 {
		t.Fatalf("k=0 sample invalid: %v", v)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	p := DefaultParams()
	a, b := NewSensor(p, 123), NewSensor(p, 123)
	full := p.TrueCurrent(fullLoadState())
	for i := 0; i < 100; i++ {
		if a.Read(full, 0, 5) != b.Read(full, 0, 5) {
			t.Fatal("same-seed sensors diverged")
		}
	}
}

func TestFullLoadClearsQuiescentByPaperMargin(t *testing.T) {
	// Paper: workload σ ≈ 0.96 A and the load/quiescent contrast spans
	// the 1.7–4.5 A envelope. At minimum, full load must exceed idle by
	// well over an ampere so static thresholds tuned near idle misfire.
	m := DefaultParams()
	idle := m.TrueCurrent(BoardState{Cores: make([]CoreState, 4)})
	full := m.TrueCurrent(fullLoadState())
	if full-idle < 2 {
		t.Fatalf("load contrast = %.3f A, want > 2 A", full-idle)
	}
}
