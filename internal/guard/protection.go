package guard

import (
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
)

// Protection is one board's latchup protection: the paper's bare ILD
// detector, or the Supervisor wrapped around it. It owns the decision
// every flight loop makes on a detection — power cycle the board, then
// restart the detector — so callers only narrate what it returns.
type Protection struct {
	m     *machine.Machine
	det   *ild.Detector
	sup   *Supervisor // nil: the bare detector
	known int         // power cycles reconciled so far
}

// NewProtection puts det in charge of m's latchups or, when sup is
// non-nil, the supervisor wrapped around det.
func NewProtection(m *machine.Machine, det *ild.Detector, sup *Supervisor) *Protection {
	return &Protection{m: m, det: det, sup: sup, known: m.PowerCycles()}
}

// Reconcile reports whether the board power cycled since the last call,
// whoever commanded it (the hardware watchdog and the supply trip fire
// inside the machine), and restarts the detector or tells the
// supervisor.
func (p *Protection) Reconcile(t time.Duration) bool {
	pc := p.m.PowerCycles()
	if pc == p.known {
		return false
	}
	p.known = pc
	if p.sup != nil {
		p.sup.NotePowerCycle(t)
	} else {
		p.det.Reset()
	}
	return true
}

// Cycle power cycles the board on the protection's command.
func (p *Protection) Cycle(t time.Duration) {
	p.m.PowerCycle()
	p.Reconcile(t)
}

// Observe feeds one sample through the protection and power cycles the
// board, once, when it calls for a cycle. The bare detector's cycle is
// software-commanded and needs a live kernel to run the rail-control
// code, so a hung board cannot save itself; the supervisor drives an
// external hardware power switch. On the bare path the Decision
// carries only Fired. On a cycle, residual is the detector's, read
// before the cycle restarts it; otherwise it is 0.
func (p *Protection) Observe(tel machine.Telemetry) (d Decision, residual float64, cycled bool) {
	if p.sup == nil {
		d.Fired = p.det.Observe(tel)
		cycled = d.Fired && !p.m.KernelHung()
	} else {
		d = p.sup.Observe(tel)
		cycled = d.Fired || d.BlindCycle || d.HangCycle
	}
	if cycled {
		residual = p.det.Residual()
		p.Cycle(tel.T)
	}
	return d, residual, cycled
}
