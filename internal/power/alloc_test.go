//go:build !race

package power

import (
	"testing"
	"time"
)

// TestAllocsSensorSample pins the sensor's per-sample read at zero
// allocations: a raw reading, a min-of-5 filtered reading and the
// analog value, as the machine's sampler takes them once per simulated
// millisecond, with a fault scheduled so every read walks the schedule
// too. Excluded under -race: race instrumentation allocates on its own.
func TestAllocsSensorSample(t *testing.T) {
	s := NewSensor(DefaultParams(), 1)
	if err := s.ScheduleFault(SensorFault{Kind: FaultOffset, Start: 1 << 40, OffsetA: 0.1}); err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	var sum float64
	if n := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		r := s.Read(1.55, now, 5)
		sum += r.RawA + r.FilteredA + r.AnalogA
	}); n != 0 {
		t.Errorf("a sensor sample allocates %.1f objects, want 0", n)
	}
	if sum == 0 {
		t.Fatal("sensor read nothing")
	}
}
