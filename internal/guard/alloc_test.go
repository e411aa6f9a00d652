//go:build !race

// Allocation-regression test for the shared protection path. Excluded
// under -race: race instrumentation allocates on its own.

package guard

import (
	"testing"
	"time"

	"radshield/internal/machine"
)

func TestAllocsProtectionObserve(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		det := trainedDetector(t)
		var sup *Supervisor
		if guarded {
			var err error
			if sup, err = NewSupervisor(det, fastSupervisorConfig()); err != nil {
				t.Fatal(err)
			}
		}
		m := machine.New(machine.DefaultConfig())
		p := NewProtection(m, det, sup)
		// Biased samples fire the detector every sustain window, so the
		// measured calls include detections and their power cycles.
		s, i := biasedTel(0, 0), 0
		avg := testing.AllocsPerRun(200, func() {
			i++
			s.T = time.Duration(i) * time.Millisecond
			s.CurrentA = 1.65 + 0.0001*float64(i%7)
			s.RawA = s.CurrentA
			p.Observe(s)
		})
		if avg != 0 {
			t.Errorf("guarded=%v: Observe allocates %.3f objects, want 0", guarded, avg)
		}
		if m.PowerCycles() == 0 {
			t.Errorf("guarded=%v: no power cycle measured", guarded)
		}
	}
}
