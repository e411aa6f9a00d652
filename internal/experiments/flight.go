package experiments

import (
	"bytes"
	"math/rand"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/ild"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// Shared flight pieces: every onboard-loop decision that two or more
// flight campaigns (mission, guard, watchdog, oskernel, adaptive,
// downlink) make is made here, once. Each campaign keeps only its own
// per-sample order — which piece runs before which — because that order
// is what its pinned output depends on.

// bubbleLen is the measurement-bubble length: one second longer than
// the sustain requirement, because the sample straddling the
// workload→bubble boundary reads as busy and resets the averaging
// window, so a bare SustainFor bubble never quite fills it.
func (c SELConfig) bubbleLen() time.Duration { return c.ildConfig().SustainFor + time.Second }

// pairTrace draws the flight-software trace both arms of a pair fly,
// read-only: raw, and with a measurement bubble every pause.
func (c SELConfig) pairTrace(rng *rand.Rand, dur, pause time.Duration) (raw, bubbled *trace.Trace) {
	raw = trace.FlightSoftware(rng, dur, machine.DefaultConfig().Cores)
	return raw, ild.InjectBubbles(raw, ild.BubblePolicy{BubbleLen: c.bubbleLen(), Pause: pause})
}

// selLedger is one arm's latchup-episode ledger, and the one definition
// of a missed SEL: an episode still uncleared more than the detection
// window after it struck. With a period it is also the arm's latchup
// source: one SEL at a time, the next a period after the previous
// clears (any power cycle clears it; a damaged board never clears).
type selLedger struct {
	window, every time.Duration // every 0: latchups come from elsewhere
	amps          float64
	next          time.Duration // the periodic source's next strike
	since         time.Duration // the open episode's start; -1: none
	counted       bool          // the open episode is already a miss
	missed        int
}

// periodicSELs is the ledger of a campaign whose latchups strike every
// SELEvery, the first at first.
func (c SELConfig) periodicSELs(first time.Duration) selLedger {
	return selLedger{window: c.Window, every: c.SELEvery, amps: c.SELAmps, next: first, since: -1}
}

// observe updates the ledger for the sample at t, striking the periodic
// source's latchup when it is due, and reports whether the open episode
// just became a miss.
func (l *selLedger) observe(m *machine.Machine, t time.Duration) bool {
	if l.since >= 0 && !m.SELActive() {
		l.cleared(t)
	}
	if l.since < 0 && l.every > 0 && t >= l.next && !m.Damaged() {
		injectSEL(m, l.amps)
	}
	if l.since < 0 && m.SELActive() {
		l.since, l.counted = t, false
	}
	if l.since >= 0 && !l.counted && t-l.since > l.window {
		l.missed++
		l.counted = true
		return true
	}
	return false
}

// cleared closes the open episode at t.
func (l *selLedger) cleared(t time.Duration) {
	l.since = -1
	l.next = t + l.every
}

// close counts an episode still burning when the flight ended at end (a
// dead board stops sampling but keeps heating) as missed if it outlived
// the window.
func (l *selLedger) close(end time.Duration) {
	if l.since >= 0 && !l.counted && end-l.since > l.window {
		l.missed++
	}
}

// protection is one arm's latchup protection: the paper's bare ILD
// detector, or the guard supervisor wrapped around it.
type protection struct {
	m     *machine.Machine
	det   *ild.Detector
	sup   *guard.Supervisor // nil: the bare detector
	known int               // power cycles reconciled so far
}

// newProtection builds a detector over the trained model and, when
// guarded, the supervisor around it.
func newProtection(m *machine.Machine, model *linmodel.Model, ic ild.Config, sc guard.SupervisorConfig, guarded bool) (*protection, error) {
	det, err := ild.NewDetector(model, ic)
	if err != nil {
		return nil, err
	}
	p := &protection{m: m, det: det}
	if guarded {
		if p.sup, err = guard.NewSupervisor(det, sc); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// reconcile reports whether the board power cycled since the last call,
// whoever commanded it (the hardware watchdog and the supply trip fire
// inside the machine), and restarts the detector or tells the
// supervisor.
func (p *protection) reconcile(t time.Duration) bool {
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

// cycle power cycles the board on the protection's command.
func (p *protection) cycle(t time.Duration) {
	p.m.PowerCycle()
	p.reconcile(t)
}

// observe feeds one sample through the protection and power cycles the
// board when it calls for one. The bare detector's cycle is
// software-commanded and needs a live kernel to run the rail-control
// code, so a hung board cannot save itself; the supervisor drives an
// external hardware power switch. A bare arm's Decision is zero.
func (p *protection) observe(tel machine.Telemetry) (d guard.Decision, cycled bool) {
	if p.sup == nil {
		cycled = p.det.Observe(tel) && !p.m.KernelHung()
	} else {
		d = p.sup.Observe(tel)
		cycled = d.Fired || d.BlindCycle || d.HangCycle
	}
	if cycled {
		p.cycle(tel.T)
	}
	return d, cycled
}

// planConfig is the EMR runtime configuration a redundancy plan runs on.
func planConfig(p guard.Plan, watch emr.Watcher) emr.Config {
	cfg := emr.DefaultConfig()
	cfg.Scheme, cfg.Executors, cfg.Watch = p.Scheme, p.Executors, watch
	return cfg
}

// payloadJob builds the flight payload, the localization job, on a
// fresh runtime for plan.
func payloadJob(p guard.Plan) (*emr.Runtime, emr.Spec, error) {
	rt, err := emr.New(planConfig(p, nil))
	if err != nil {
		return nil, emr.Spec{}, err
	}
	spec, err := workloads.ImageProcessing().Build(rt, 32<<10, 2026)
	return rt, spec, err
}

// payloadGolden computes the reference payload outputs once.
func payloadGolden() ([][]byte, error) {
	rt, spec, err := payloadJob(guard.Plan{Scheme: fault.SchemeNone, Executors: 3})
	if err != nil {
		return nil, err
	}
	res, err := rt.Run(spec)
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// contact is one payload contact's outcome.
type contact struct {
	sdc       bool
	corrected int
	vetoed    int
	energyJ   float64
}

// payloadContact runs the payload under plan with the accrued SEU
// backlog striking the cache. A detected failure (a nil output) is
// vetoed and retried clean; only a corrupted output that survives to
// comparison with golden is SDC.
func payloadContact(p guard.Plan, seed int64, seus int, golden [][]byte) (contact, error) {
	var out contact
	rt, spec, err := payloadJob(p)
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	spec.Hook = func(hp *emr.HookPoint) {
		if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < 0.05 {
			reg := hp.Regions[rng.Intn(len(hp.Regions))]
			f := fault.RandomFlip(rng, reg.Len)
			if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
				remaining--
			}
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		return out, err
	}
	out.corrected = res.Report.Votes.Corrected
	out.energyJ = res.Report.EnergyJ
	for i := range golden {
		if res.Outputs[i] == nil {
			out.vetoed++
		} else if !bytes.Equal(res.Outputs[i], golden[i]) {
			out.sdc = true
		}
	}
	return out, nil
}

// verdict renders an output check the way the campaign tables print it.
func verdict(ok bool) string {
	if ok {
		return "golden"
	}
	return "WRONG"
}

// lossyLink builds a comms link whose impairments hold for the whole
// flight, drain pass included: loss drops that fraction of frames,
// corrupts half as many and reorders a quarter as many, and a blackout
// of the given length (0: none) opens at blackoutAt.
func lossyLink(cfg downlink.LinkConfig, loss float64, blackoutAt, blackout time.Duration) (*downlink.Link, error) {
	link, err := downlink.NewLink(cfg)
	if err != nil {
		return nil, err
	}
	if loss > 0 {
		if err := link.ScheduleLinkFault(downlink.LinkFault{Drop: loss, Corrupt: loss / 2, Reorder: loss / 4}); err != nil {
			return nil, err
		}
	}
	if blackout > 0 {
		if err := link.ScheduleBlackout(downlink.Blackout{Start: blackoutAt, Duration: blackout}); err != nil {
			return nil, err
		}
	}
	return link, nil
}

// comms is one arm's space-to-ground path: the transmitter over a link
// into a ground station, with the tallies of what the flight side
// enqueued. It owns the buffers one pass reuses, so a steady-state tick
// allocates nothing.
type comms struct {
	tx         *downlink.Transmitter
	link       *downlink.Link
	st         *downlink.Station
	payload    []byte // the next enqueue's payload, built in place
	down       []byte // this pass's arriving frames, back to back
	acks       []byte // the station's ACK frames for them
	enq, p0Enq uint64
	err        error // the first enqueue failure; fails the next tick
}

// newComms puts a transmitter configured by tcfg on link, with a
// default ground station at the far end.
func newComms(link *downlink.Link, tcfg downlink.TxConfig) (*comms, error) {
	tx, err := downlink.NewTransmitter(link, tcfg)
	if err != nil {
		return nil, err
	}
	return &comms{tx: tx, link: link, st: downlink.NewStation(downlink.DefaultStationConfig())}, nil
}

// enqueue queues the built payload on channel vc.
func (c *comms) enqueue(vc uint8, now time.Duration) {
	if c.err != nil {
		return
	}
	if c.err = c.tx.Enqueue(vc, c.payload, now); c.err != nil {
		return
	}
	c.enq++
	if vc == 0 {
		c.p0Enq++
	}
}

// bulk enqueues on channel 3 every science frame due by now, one each
// every from next, and returns the next one's due time.
func (c *comms) bulk(next, every, now time.Duration) time.Duration {
	for every > 0 && next <= now {
		c.payload = appendDuration(append(c.payload[:0], "bulk t="...), next)
		c.payload = append(c.payload, " frame of science payload data"...)
		c.enqueue(3, now)
		next += every
	}
	return next
}

// tick runs the transmitter's ARQ tick, then the ground pass: every
// frame arriving by now is ingested as one batch and the station's
// ACKs go back up the link.
func (c *comms) tick(now time.Duration) error {
	if c.err != nil {
		return c.err
	}
	if err := c.tx.Tick(now); err != nil {
		return err
	}
	c.down = c.down[:0]
	for _, raw := range c.link.RecvDown(now) {
		c.down = append(c.down, raw...)
	}
	if len(c.down) == 0 {
		return nil
	}
	c.acks = c.st.AppendAcks(c.acks[:0], c.down, now)
	for b := c.acks; len(b) > 0; b = b[downlink.AckFrameLen:] {
		c.link.SendUp(b[:downlink.AckFrameLen], now)
	}
	return nil
}

// totals sums the station's delivered and skipped frames over every
// link and channel, and the channel-0 deliveries.
func (c *comms) totals() (delivered, skipped, p0 uint64) {
	for _, id := range c.st.Links() {
		for vc := uint8(0); vc < downlink.NumVC; vc++ {
			delivered += c.st.Delivered(id, vc)
			skipped += c.st.Skipped(id, vc)
		}
		p0 += c.st.Delivered(id, 0)
	}
	return delivered, skipped, p0
}

// appendDuration appends d exactly as d.String() formats it; the
// downlink payloads, and through them the campaign goldens, depend on
// those bytes. Duration.String is inlinable and its result does not
// escape here, so the append allocates nothing.
func appendDuration(dst []byte, d time.Duration) []byte {
	return append(dst, d.String()...)
}
