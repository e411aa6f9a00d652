package power

import (
	"math"
	"testing"
	"time"
)

func quietSensor(seed int64) *Sensor {
	p := DefaultParams()
	p.NoiseSigmaA = 0
	p.SpikeProb = 0
	return NewSensor(p, seed)
}

// idleA is the idle board's true current.
var idleA = DefaultParams().TrueCurrent(BoardState{})

func TestScheduleFaultValidation(t *testing.T) {
	s := quietSensor(1)
	cases := []SensorFault{
		{Kind: FaultNone},
		{Kind: FaultKind(99)},
		{Kind: FaultDropout, Start: -time.Second},
		{Kind: FaultStuck, Duration: -time.Second},
		{Kind: FaultOffset, OffsetA: math.NaN()},
		{Kind: FaultOffset, OffsetA: math.Inf(1)},
	}
	for i, f := range cases {
		if err := s.ScheduleFault(f); err == nil {
			t.Errorf("case %d: ScheduleFault(%+v) accepted, want error", i, f)
		}
	}
	if len(s.faults) != 0 {
		t.Fatalf("rejected faults were recorded: %v", s.faults)
	}
	if err := s.ScheduleFault(SensorFault{Kind: FaultDropout, Start: time.Second, Duration: time.Second}); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
}

func TestFaultDropoutReturnsNaN(t *testing.T) {
	s := quietSensor(2)
	if err := s.ScheduleFault(SensorFault{Kind: FaultDropout, Start: time.Second, Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	if r := s.Read(idleA, 0, 5); math.IsNaN(r.RawA) || math.IsNaN(r.FilteredA) {
		t.Fatal("healthy sample is NaN before fault onset")
	}
	if r := s.Read(idleA, 1500*time.Millisecond, 5); !math.IsNaN(r.RawA) || !math.IsNaN(r.FilteredA) {
		t.Fatalf("dropout sample = %+v, want NaN", r)
	}
	if r := s.Read(idleA, 2500*time.Millisecond, 5); math.IsNaN(r.RawA) || math.IsNaN(r.FilteredA) {
		t.Fatal("sample still NaN after fault window closed")
	}
}

func TestFaultStuckFreezesLastHealthy(t *testing.T) {
	s := quietSensor(3)
	if err := s.ScheduleFault(SensorFault{Kind: FaultStuck, Start: time.Second}); err != nil {
		t.Fatal(err)
	}
	healthy := s.Read(idleA, 0, 5).FilteredA
	// The frozen value must track the last healthy reading even as the
	// true current changes underneath.
	busy := DefaultParams().TrueCurrent(BoardState{Cores: []CoreState{{FreqHz: 1.4e9, Util: 1, IPC: 2}}})
	for i := 0; i < 3; i++ {
		if r := s.Read(busy, 2*time.Second, 5); r.RawA != healthy || r.FilteredA != healthy {
			t.Fatalf("stuck sample %d = %+v, want frozen %v", i, r, healthy)
		}
	}
}

func TestFaultStuckBeforeAnyHealthyReadIsZero(t *testing.T) {
	s := quietSensor(4)
	if err := s.ScheduleFault(SensorFault{Kind: FaultStuck}); err != nil {
		t.Fatal(err)
	}
	if r := s.Read(idleA, 0, 5); r.RawA != 0 || r.FilteredA != 0 {
		t.Fatalf("stuck-from-boot sample = %+v, want 0", r)
	}
}

func TestFaultOffsetAddsBias(t *testing.T) {
	s := quietSensor(5)
	base := s.Read(idleA, 0, 5).RawA
	if err := s.ScheduleFault(SensorFault{Kind: FaultOffset, OffsetA: 0.25}); err != nil {
		t.Fatal(err)
	}
	if r := s.Read(idleA, time.Millisecond, 5); r.RawA != base+0.25 || r.FilteredA != base+0.25 {
		t.Fatalf("offset sample = %+v, want %v", r, base+0.25)
	}
}

func TestFaultGarbageIsDeterministicAndWild(t *testing.T) {
	draw := func(seed int64) []float64 {
		s := quietSensor(seed)
		if err := s.ScheduleFault(SensorFault{Kind: FaultGarbage}); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 40)
		for range 20 {
			r := s.Read(idleA, 0, 5)
			out = append(out, r.RawA, r.FilteredA)
		}
		return out
	}
	a, b := draw(6), draw(6)
	sawNaN, sawNeg, sawHuge := false, false, false
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) || (!math.IsNaN(a[i]) && a[i] != b[i]) {
			t.Fatalf("garbage stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		switch {
		case math.IsNaN(a[i]):
			sawNaN = true
		case a[i] < 0:
			sawNeg = true
		case a[i] > 100:
			sawHuge = true
		}
	}
	if !sawNaN || !sawNeg || !sawHuge {
		t.Fatalf("garbage stream missing a mode: NaN=%v neg=%v huge=%v", sawNaN, sawNeg, sawHuge)
	}
}

// TestFaultScheduleDoesNotPerturbHealthyStream is the determinism
// contract the guard campaigns lean on: scheduling a fault must leave
// every reading outside the fault window bit-identical to an unfaulted
// run with the same seed.
func TestFaultScheduleDoesNotPerturbHealthyStream(t *testing.T) {
	run := func(schedule bool) []float64 {
		s := NewSensor(DefaultParams(), 7) // noisy: exercises the RNG stream
		if schedule {
			if err := s.ScheduleFault(SensorFault{Kind: FaultGarbage, Start: 10 * time.Millisecond, Duration: 10 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		var out []float64
		for i := 0; i < 40; i++ {
			r := s.Read(idleA, time.Duration(i)*time.Millisecond, 5)
			out = append(out, r.RawA, r.FilteredA)
		}
		return out
	}
	plain, faulted := run(false), run(true)
	for i := range plain {
		in := i/2 >= 10 && i/2 < 20
		if !in && plain[i] != faulted[i] {
			t.Fatalf("healthy sample %d perturbed by fault schedule: %v vs %v", i, plain[i], faulted[i])
		}
		if in && plain[i] == faulted[i] {
			t.Fatalf("sample %d inside garbage window unchanged: %v", i, plain[i])
		}
	}
}

func TestAnalogRawUnaffectedByFault(t *testing.T) {
	s := quietSensor(8)
	healthy := s.Read(idleA, 0, 5).RawA
	if err := s.ScheduleFault(SensorFault{Kind: FaultDropout}); err != nil {
		t.Fatal(err)
	}
	r := s.Read(idleA, 0, 5)
	if !math.IsNaN(r.RawA) {
		t.Fatalf("digital sample = %v, want NaN under dropout", r.RawA)
	}
	if r.AnalogA != healthy {
		t.Fatalf("AnalogA = %v, want healthy %v", r.AnalogA, healthy)
	}
}

func TestSampleFilteredFaultedOnce(t *testing.T) {
	s := quietSensor(9)
	base := s.Read(idleA, 0, 5).FilteredA
	if err := s.ScheduleFault(SensorFault{Kind: FaultOffset, OffsetA: 0.1}); err != nil {
		t.Fatal(err)
	}
	// The bias applies to the filtered result exactly once, not per draw.
	if v := s.Read(idleA, 0, 5).FilteredA; math.Abs(v-(base+0.1)) > 1e-12 {
		t.Fatalf("filtered offset sample = %v, want %v", v, base+0.1)
	}
}

func TestActiveFaultEarliestScheduledWins(t *testing.T) {
	s := quietSensor(10)
	if err := s.ScheduleFault(SensorFault{Kind: FaultStuck, Start: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleFault(SensorFault{Kind: FaultDropout, Start: 0}); err != nil {
		t.Fatal(err)
	}
	if r := s.Read(idleA, 0, 5); r.Fault != FaultStuck {
		t.Fatalf("active fault = %v, want earliest-scheduled stuck", r.Fault)
	}
}
