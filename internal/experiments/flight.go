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
	"radshield/internal/mission"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// Shared flight pieces: every onboard-loop decision that two or more
// flight campaigns (mission, guard, watchdog, oskernel, adaptive,
// downlink) make is made here, once. Each campaign keeps only its own
// per-sample order — which piece runs before which — because that order
// is what its pinned output depends on.

// BubbleLen is the flight measurement-bubble length: one second longer
// than the sustain requirement, because the sample straddling the
// workload→bubble boundary reads as busy and resets the averaging
// window, so a bare SustainFor bubble never quite fills it.
func (c SELConfig) BubbleLen() time.Duration { return c.ildConfig().SustainFor + time.Second }

// BubblePause is the paper's bubble-free span between measurement
// bubbles (3 minutes), the cadence Table 3 and Fig 14 charge: every
// flight but the adaptive campaign's, which flies its posture's, pauses
// this long.
func (c SELConfig) BubblePause() time.Duration { return ild.DefaultBubblePolicy().Pause }

// PairTrace draws the flight-software trace both arms of a pair fly,
// read-only: raw, and with a measurement bubble every pause, each
// bubble counted on ins (nil: uncounted). Table 2 and ildmon fly the
// bubbled trace alone.
func (c SELConfig) PairTrace(rng *rand.Rand, dur, pause time.Duration, ins *ild.Instruments) (raw, bubbled *trace.Trace) {
	raw = trace.FlightSoftware(rng, dur, machine.DefaultConfig().Cores)
	return raw, ild.InjectBubbles(raw, ild.BubblePolicy{BubbleLen: c.BubbleLen(), Pause: pause, Instruments: ins})
}

// FlightPlan draws one flight through prof's scheduled radiation from
// one stream seeded with seed: the events prof schedules, then the
// flight-software trace over the profile's span, raw and with a
// bubble every pause (PairTrace). Every flight that meets scheduled
// radiation draws it here: the mission and adaptive campaigns and
// examples/leomission.
func (c SELConfig) FlightPlan(prof mission.Profile, seed int64, pause time.Duration) (events []fault.Event, raw, bubbled *trace.Trace, err error) {
	rng := rand.New(rand.NewSource(seed))
	if events, err = prof.Schedule(rng); err != nil {
		return nil, nil, nil, err
	}
	raw, bubbled = c.PairTrace(rng, prof.Total(), pause, nil)
	return events, raw, bubbled, nil
}

// radiation is one arm's feed of a flight plan's events: a latchup
// strikes the board when due, and an upset joins the backlog that
// strikes the next payload contact.
type radiation struct {
	events  []fault.Event
	next    int // the first event not yet delivered
	backlog int // upsets delivered since the last contact
}

// deliver strikes every event due by t.
func (r *radiation) deliver(m *machine.Machine, t time.Duration) {
	for r.next < len(r.events) && r.events[r.next].T <= t {
		ev := r.events[r.next]
		r.next++
		if ev.Kind == fault.SEL {
			injectSEL(m, ev.Amps)
		} else {
			r.backlog++
		}
	}
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

// newProtection builds one arm's latchup protection: a detector over
// the trained model and, when guarded, the supervisor around it, which
// it also returns for its counters (nil on a bare arm).
func newProtection(m *machine.Machine, model *linmodel.Model, ic ild.Config, sc guard.SupervisorConfig, guarded bool) (*guard.Protection, *guard.Supervisor, error) {
	det, err := ild.NewDetector(model, ic)
	if err != nil {
		return nil, nil, err
	}
	var sup *guard.Supervisor
	if guarded {
		if sup, err = guard.NewSupervisor(det, sc); err != nil {
			return nil, nil, err
		}
	}
	return guard.NewProtection(m, det, sup), sup, nil
}

// planConfig is the EMR runtime configuration a redundancy plan runs on.
func planConfig(p guard.Plan, watch emr.Watcher) emr.Config {
	cfg := emr.DefaultConfig()
	cfg.Scheme, cfg.Executors, cfg.Watch = p.Scheme, p.Executors, watch
	return cfg
}

// campaignPayloadSize and campaignStrikeRate are the flight campaigns'
// payload contact: a 32 KiB localization job, and the chance that a
// pending upset strikes after each executor's read.
const (
	campaignPayloadSize = 32 << 10
	campaignStrikeRate  = 0.05
)

// StrikePayload runs the flight payload, the localization job over
// size bytes of map, on a fresh runtime for plan, with a backlog of seus
// upsets striking the cache: after each executor's read, while the
// backlog lasts, one bit of a region it read flips with probability
// strikeRate. seed draws the strikes; the map is the same at every
// seed. Every flight program's payload contact is this run: the
// campaigns compare its outputs with golden, examples/leomission checks
// the best match.
func StrikePayload(p guard.Plan, size int, strikeRate float64, seed int64, seus int) (*emr.Result, error) {
	rt, err := emr.New(planConfig(p, nil))
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ImageProcessing().Build(rt, size, 2026)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	spec.Hook = func(hp *emr.HookPoint) {
		if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < strikeRate {
			reg := hp.Regions[rng.Intn(len(hp.Regions))]
			f := fault.RandomFlip(rng, reg.Len)
			if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
				remaining--
			}
		}
	}
	return rt.Run(spec)
}

// payloadGolden computes the reference payload outputs once: the
// campaigns' payload, unstruck and unprotected.
func payloadGolden() ([][]byte, error) {
	res, err := StrikePayload(guard.Plan{Scheme: fault.SchemeNone, Executors: 3}, campaignPayloadSize, 0, 0, 0)
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

// payloadContact runs the payload under plan with the upset backlog
// striking the cache, and clears the backlog. A detected failure (a nil
// output) is vetoed and retried clean; only a corrupted output that
// survives to comparison with golden is SDC.
func (r *radiation) payloadContact(p guard.Plan, seed int64, golden [][]byte) (contact, error) {
	var out contact
	res, err := StrikePayload(p, campaignPayloadSize, campaignStrikeRate, seed, r.backlog)
	if err != nil {
		return out, err
	}
	r.backlog = 0
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
// ground station at the far end that keeps no channel-0 payloads: a
// campaign reads only the station's tallies.
func newComms(link *downlink.Link, tcfg downlink.TxConfig) (*comms, error) {
	tx, err := downlink.NewTransmitter(link, tcfg)
	if err != nil {
		return nil, err
	}
	return &comms{tx: tx, link: link, st: downlink.NewStation(downlink.StationConfig{})}, nil
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
		c.payload = append(append(c.payload[:0], "bulk t="...), next.String()...)
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
