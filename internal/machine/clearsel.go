package machine

// ClearSEL removes any injected latchup current without the counter and
// load resets of a full PowerCycle. Experiment harnesses use it to end an
// SEL episode at the exact detection-window boundary while the workload
// trace continues undisturbed; flight code uses PowerCycle.
func (m *Machine) ClearSEL() {
	if m.selAmps > 0 {
		m.ins.selClear(m.now, "clear_sel")
	}
	m.selAmps = 0
}
