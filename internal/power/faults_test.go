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
	return NewSensor(NewModel(p), seed)
}

func idleState() BoardState { return BoardState{} }

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
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); math.IsNaN(v) {
		t.Fatal("healthy sample is NaN before fault onset")
	}
	s.AdvanceTo(1500 * time.Millisecond)
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); !math.IsNaN(v) {
		t.Fatalf("dropout sample = %v, want NaN", v)
	}
	s.AdvanceTo(2500 * time.Millisecond)
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); math.IsNaN(v) {
		t.Fatal("sample still NaN after fault window closed")
	}
}

func TestFaultStuckFreezesLastHealthy(t *testing.T) {
	s := quietSensor(3)
	if err := s.ScheduleFault(SensorFault{Kind: FaultStuck, Start: time.Second}); err != nil {
		t.Fatal(err)
	}
	healthy := s.SampleFrom(s.model.TrueCurrent(idleState()))
	s.AdvanceTo(2 * time.Second)
	// The frozen value must track the last healthy reading even as the
	// true current changes underneath.
	busy := BoardState{Cores: []CoreState{{FreqHz: 1.4e9, Util: 1, IPC: 2}}}
	for i := 0; i < 3; i++ {
		if v := s.SampleFrom(s.model.TrueCurrent(busy)); v != healthy {
			t.Fatalf("stuck sample %d = %v, want frozen %v", i, v, healthy)
		}
	}
}

func TestFaultStuckBeforeAnyHealthyReadIsZero(t *testing.T) {
	s := quietSensor(4)
	if err := s.ScheduleFault(SensorFault{Kind: FaultStuck}); err != nil {
		t.Fatal(err)
	}
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); v != 0 {
		t.Fatalf("stuck-from-boot sample = %v, want 0", v)
	}
}

func TestFaultOffsetAddsBias(t *testing.T) {
	s := quietSensor(5)
	base := s.SampleFrom(s.model.TrueCurrent(idleState()))
	if err := s.ScheduleFault(SensorFault{Kind: FaultOffset, OffsetA: 0.25}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(time.Millisecond)
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); v != base+0.25 {
		t.Fatalf("offset sample = %v, want %v", v, base+0.25)
	}
}

func TestFaultGarbageIsDeterministicAndWild(t *testing.T) {
	draw := func(seed int64) []float64 {
		s := quietSensor(seed)
		if err := s.ScheduleFault(SensorFault{Kind: FaultGarbage}); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 20)
		for i := range out {
			out[i] = s.SampleFrom(s.model.TrueCurrent(idleState()))
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
		s := NewSensor(NewModel(DefaultParams()), 7) // noisy: exercises the RNG stream
		if schedule {
			if err := s.ScheduleFault(SensorFault{Kind: FaultGarbage, Start: 10 * time.Millisecond, Duration: 10 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		var out []float64
		for i := 0; i < 40; i++ {
			s.AdvanceTo(time.Duration(i) * time.Millisecond)
			out = append(out, s.SampleFrom(s.model.TrueCurrent(idleState())))
		}
		return out
	}
	plain, faulted := run(false), run(true)
	for i := range plain {
		in := i >= 10 && i < 20
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
	healthy := s.SampleFrom(s.model.TrueCurrent(idleState()))
	if err := s.ScheduleFault(SensorFault{Kind: FaultDropout}); err != nil {
		t.Fatal(err)
	}
	if v := s.SampleFrom(s.model.TrueCurrent(idleState())); !math.IsNaN(v) {
		t.Fatalf("digital sample = %v, want NaN under dropout", v)
	}
	if got := s.AnalogRaw(); got != healthy {
		t.Fatalf("AnalogRaw = %v, want healthy %v", got, healthy)
	}
}

func TestSampleFilteredFaultedOnce(t *testing.T) {
	s := quietSensor(9)
	base := s.SampleFilteredFrom(s.model.TrueCurrent(idleState()), 5)
	if err := s.ScheduleFault(SensorFault{Kind: FaultOffset, OffsetA: 0.1}); err != nil {
		t.Fatal(err)
	}
	// The bias applies to the filtered result exactly once, not per draw.
	if v := s.SampleFilteredFrom(s.model.TrueCurrent(idleState()), 5); math.Abs(v-(base+0.1)) > 1e-12 {
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
	f, ok := s.ActiveFault()
	if !ok || f.Kind != FaultStuck {
		t.Fatalf("ActiveFault = %+v/%v, want earliest-scheduled stuck", f, ok)
	}
}
