package guard

import (
	"testing"
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
)

// biasedTel is a healthy-looking sample 0.1 A over the trained
// baseline, with ADC jitter so the stuck check stays quiet: the
// detector fires once its sustain window fills.
func biasedTel(t time.Duration, i int) machine.Telemetry {
	return tel(t, 1.65+0.0001*float64(i%7))
}

// hungMachine is a default board whose kernel hangs from the start.
func hungMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m := machine.New(machine.DefaultConfig())
	if err := m.ScheduleOSFault(machine.OSFault{Kind: machine.OSFaultKernelHang}); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond)
	if !m.KernelHung() {
		t.Fatal("hang window not active")
	}
	return m
}

// observeUntilFired feeds biased samples until the protection's
// monitor fires, and returns that sample's results.
func observeUntilFired(t *testing.T, p *Protection) (d Decision, residual float64, cycled bool) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if d, residual, cycled = p.Observe(biasedTel(time.Duration(i)*time.Millisecond, i)); d.Fired {
			return d, residual, cycled
		}
	}
	t.Fatal("biased samples never fired the detector")
	return d, residual, cycled
}

// A bare detection power cycles the board once and restarts the
// detector; the residual it returns is the detector's, from before the
// restart, exactly as an unprotected twin fed the same samples reads.
func TestProtectionBareCycleResetsDetector(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	det, twin := trainedDetector(t), trainedDetector(t)
	p := NewProtection(m, det, nil)
	for i := 0; ; i++ {
		s := biasedTel(time.Duration(i)*time.Millisecond, i)
		twin.Observe(s)
		d, residual, cycled := p.Observe(s)
		if !d.Fired {
			if cycled || m.PowerCycles() != 0 {
				t.Fatalf("sample %d: cycled = %v, %d power cycles before any detection", i, cycled, m.PowerCycles())
			}
			continue
		}
		if !cycled || m.PowerCycles() != 1 {
			t.Fatalf("detection: cycled = %v, %d power cycles; want one", cycled, m.PowerCycles())
		}
		if residual <= 0 || residual != twin.Residual() {
			t.Fatalf("residual = %v, want the pre-cycle %v", residual, twin.Residual())
		}
		if det.Residual() != 0 {
			t.Fatalf("detector residual %v after the cycle, want a restarted window", det.Residual())
		}
		return
	}
}

// The bare detector's cycle is software-commanded, so a hung kernel
// cannot run it; the supervisor's external switch still cycles.
func TestProtectionHungKernel(t *testing.T) {
	m := hungMachine(t)
	if _, _, cycled := observeUntilFired(t, NewProtection(m, trainedDetector(t), nil)); cycled || m.PowerCycles() != 0 {
		t.Fatalf("bare path on a hung kernel: cycled = %v, %d power cycles; want none", cycled, m.PowerCycles())
	}

	m = hungMachine(t)
	det := trainedDetector(t)
	sup, err := NewSupervisor(det, fastSupervisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, cycled := observeUntilFired(t, NewProtection(m, det, sup)); !cycled || m.PowerCycles() != 1 {
		t.Fatalf("supervised path on a hung kernel: cycled = %v, %d power cycles; want one", cycled, m.PowerCycles())
	}
}

// A power cycle the machine commands itself (the hardware watchdog or
// the supply trip) is reconciled once: the detector restarts, and a
// second call finds nothing new.
func TestProtectionReconcileMachineCycle(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		m := machine.New(machine.DefaultConfig())
		det := trainedDetector(t)
		var sup *Supervisor
		if guarded {
			var err error
			if sup, err = NewSupervisor(det, fastSupervisorConfig()); err != nil {
				t.Fatal(err)
			}
		}
		p := NewProtection(m, det, sup)
		if p.Reconcile(0) {
			t.Fatalf("guarded=%v: reconciled a cycle before any happened", guarded)
		}
		p.Observe(biasedTel(0, 0))
		if det.Residual() == 0 {
			t.Fatalf("guarded=%v: biased sample left no residual", guarded)
		}
		m.PowerCycle() // commanded inside the machine, not by p
		if !p.Reconcile(time.Millisecond) {
			t.Fatalf("guarded=%v: machine-commanded cycle not reconciled", guarded)
		}
		if det.Residual() != 0 {
			t.Fatalf("guarded=%v: detector residual %v after reconcile, want a restarted window", guarded, det.Residual())
		}
		if p.Reconcile(2 * time.Millisecond) {
			t.Fatalf("guarded=%v: one cycle reconciled twice", guarded)
		}
	}
}

// When a blind cycle and a detection land on one sample, the board
// cycles once, not once per reason.
func TestProtectionBlindCycleAndFiredCycleOnce(t *testing.T) {
	cfg := fastSupervisorConfig()
	cfg.RefireLimit = 0                        // keep the linear model in charge
	cfg.BadAfter = 1 << 20                     // a stuck sensor never demotes
	cfg.BlindCycleEvery = 3 * time.Millisecond // the detector's refire period
	det := trainedDetector(t)
	sup, err := NewSupervisor(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.DefaultConfig())
	p := NewProtection(m, det, sup)
	// A stuck, biased reading: the detector fires every sustain window
	// and the sensor goes blind once the stuck check trips.
	stuck := tel(0, 1.65)
	for i := 0; i < 200; i++ {
		stuck.T = time.Duration(i) * time.Millisecond
		before := m.PowerCycles()
		d, _, cycled := p.Observe(stuck)
		if got := m.PowerCycles() - before; got > 1 || (got == 1) != cycled {
			t.Fatalf("sample %d: %d power cycles, cycled = %v", i, got, cycled)
		}
		if d.BlindCycle && d.Fired {
			return
		}
	}
	t.Fatal("no sample carried both a blind cycle and a detection")
}

// A Recorder attached to the bare detector logs what it sees.
func TestProtectionRecorder(t *testing.T) {
	det := trainedDetector(t)
	rec, err := ild.NewRecorder(det, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProtection(machine.New(machine.DefaultConfig()), det, nil)
	if _, residual, cycled := observeUntilFired(t, p); !cycled || residual <= 0 {
		t.Fatalf("recorded detection: cycled = %v, residual = %v", cycled, residual)
	}
	if rec.Len() == 0 || !rec.Records()[rec.Len()-1].Flagged {
		t.Fatalf("recorder logged %d samples, last not flagged", rec.Len())
	}
}
