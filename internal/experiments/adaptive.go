package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/fault"
	"radshield/internal/ild"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/mission"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/trace"
)

// Adaptive campaign: the closed-loop question the static campaigns
// cannot answer — does a controller that relaxes protection during
// quiet cruise and escalates through hot phases match the always-max
// posture's survival while spending measurably less on protection?
//
// Every trial flies one mission profile twice with one seed: a static
// arm pinned at adapt.LevelMax, and an adaptive arm driven by an
// adapt.Controller fed ILD detections/refires, EMR disagreements, and
// watchdog resets. Both arms replay the identical event schedule and
// flight trace (pair-shared scaffolding), so every difference in the
// table is the controller's doing.

// AdaptiveCampaignConfig parameterizes the profile sweep.
type AdaptiveCampaignConfig struct {
	// SEL supplies the shared campaign parameters: telemetry cadence,
	// training span, detection Window, Seed, Workers, Telemetry, Cache.
	// (Duration, SELEvery and SELAmps are unused: the mission profile
	// schedules every event.)
	SEL SELConfig
	// Profiles is the sweep grid: one paired trial per mission profile.
	Profiles []mission.Profile
	// RateBoost compresses mission time the same way the survival
	// campaign does: SEL rates ×RateBoost, SEU rates ×RateBoost/10.
	RateBoost float64
	// Controller tunes the adaptive arm's ladder (see adapt.Config).
	Controller adapt.Config
	// ContactEvery is the payload-contact cadence: each contact runs the
	// EMR payload under the posture's redundancy rung with the accrued
	// SEU backlog striking the cache.
	ContactEvery time.Duration

	// Downlink leg: loss rate over the whole mission (drop = LinkLoss,
	// corrupt = LinkLoss/2, reorder = LinkLoss/4), one blackout of the
	// given length opening at Total/3 (0 disables), bulk-science cadence,
	// and the post-mission drain budget for ARQ to finish.
	LinkLoss  float64
	Blackout  time.Duration
	BulkEvery time.Duration
	Drain     time.Duration
}

// DefaultAdaptiveCampaignConfig flies the full mission catalog with the
// default controller tuning.
func DefaultAdaptiveCampaignConfig() AdaptiveCampaignConfig {
	return AdaptiveCampaignConfig{
		SEL:          DefaultSELConfig(),
		Profiles:     mission.Catalog(),
		RateBoost:    3000,
		Controller:   adapt.DefaultConfig(),
		ContactEvery: 15 * time.Minute,
		LinkLoss:     0.1,
		Blackout:     2 * time.Minute,
		BulkEvery:    30 * time.Second,
		Drain:        10 * time.Minute,
	}
}

// AdaptiveArm is one arm's tallies.
type AdaptiveArm struct {
	Survived   bool
	SDC        bool // a corrupted payload product reached the ground
	MissedSELs int  // latchup episodes uncleared past the window
	Detections int  // ILD firings (each one a power cycle)
	WDResets   int  // watchdog catches of what ILD missed
	Corrected  int  // SEU-corrupted replica outputs outvoted
	Vetoed     int  // detected payload failures, retried clean

	// Protection overhead, bucketed by the phase's Quiet classification:
	// measurement-bubble time the posture schedules, and payload energy
	// under the posture's redundancy rung.
	QuietBubble  time.Duration
	ActiveBubble time.Duration
	QuietJ       float64
	ActiveJ      float64

	// Downlink: priority-0 events enqueued/delivered, everything
	// enqueued/delivered, and when the backlog drained (-1: never).
	P0Enqueued   uint64
	P0Delivered  uint64
	AllEnqueued  uint64
	AllDelivered uint64
	DrainedAt    time.Duration

	// FinalLevel and Dwell describe the posture history (static arms
	// dwell the whole mission at max).
	FinalLevel adapt.Level
	Dwell      [adapt.NumLevels]time.Duration
}

// AdaptiveTrial is one paired sweep point plus the adaptive arm's full
// decision trace.
type AdaptiveTrial struct {
	Profile  string
	Static   AdaptiveArm
	Adaptive AdaptiveArm
	Moves    []adapt.Move
}

func encAdaptiveArm(e *resultcache.Enc, a AdaptiveArm) {
	e.Bool(a.Survived)
	e.Bool(a.SDC)
	e.Int(int64(a.MissedSELs))
	e.Int(int64(a.Detections))
	e.Int(int64(a.WDResets))
	e.Int(int64(a.Corrected))
	e.Int(int64(a.Vetoed))
	e.Duration(a.QuietBubble)
	e.Duration(a.ActiveBubble)
	e.Float(a.QuietJ)
	e.Float(a.ActiveJ)
	e.Uint(a.P0Enqueued)
	e.Uint(a.P0Delivered)
	e.Uint(a.AllEnqueued)
	e.Uint(a.AllDelivered)
	e.Duration(a.DrainedAt)
	e.Int(int64(a.FinalLevel))
	for _, d := range a.Dwell {
		e.Duration(d)
	}
}

func decAdaptiveArm(d *resultcache.Dec) AdaptiveArm {
	a := AdaptiveArm{
		Survived:     d.Bool(),
		SDC:          d.Bool(),
		MissedSELs:   int(d.Int()),
		Detections:   int(d.Int()),
		WDResets:     int(d.Int()),
		Corrected:    int(d.Int()),
		Vetoed:       int(d.Int()),
		QuietBubble:  d.Duration(),
		ActiveBubble: d.Duration(),
		QuietJ:       d.Float(),
		ActiveJ:      d.Float(),
		P0Enqueued:   d.Uint(),
		P0Delivered:  d.Uint(),
		AllEnqueued:  d.Uint(),
		AllDelivered: d.Uint(),
		DrainedAt:    d.Duration(),
		FinalLevel:   adapt.Level(d.Int()),
	}
	for i := range a.Dwell {
		a.Dwell[i] = d.Duration()
	}
	return a
}

func encAdaptiveTrial(e *resultcache.Enc, t AdaptiveTrial) {
	e.Str(t.Profile)
	encAdaptiveArm(e, t.Static)
	encAdaptiveArm(e, t.Adaptive)
	e.Int(int64(len(t.Moves)))
	for _, m := range t.Moves {
		e.Duration(m.T)
		e.Int(int64(m.From))
		e.Int(int64(m.To))
		e.Float(m.Score)
		e.Str(m.Reason)
	}
}

func decAdaptiveTrial(d *resultcache.Dec) AdaptiveTrial {
	t := AdaptiveTrial{
		Profile:  d.Str(),
		Static:   decAdaptiveArm(d),
		Adaptive: decAdaptiveArm(d),
	}
	for n := d.Int(); n > 0; n-- {
		t.Moves = append(t.Moves, adapt.Move{
			T:      d.Duration(),
			From:   adapt.Level(d.Int()),
			To:     adapt.Level(d.Int()),
			Score:  d.Float(),
			Reason: d.Str(),
		})
		if d.Err() != nil {
			return t // malformed length; sticky error ends the decode
		}
	}
	return t
}

// encAdaptConfig canonically encodes the controller tuning.
func encAdaptConfig(e *resultcache.Enc, c adapt.Config) {
	e.Duration(c.Window)
	e.Float(c.EscalateAt)
	e.Float(c.PanicAt)
	e.Float(c.RelaxBelow)
	e.Duration(c.HoldFor)
	for _, w := range c.Weights {
		e.Float(w)
	}
	e.Int(int64(c.Start))
}

// encProfile canonically encodes a mission profile: name, base
// environment, and every phase's kind, duration, and multipliers.
func encProfile(e *resultcache.Enc, p mission.Profile) {
	e.Str(p.Name)
	encEnvironment(e, p.Base)
	e.Int(int64(len(p.Phase)))
	for _, ph := range p.Phase {
		e.Int(int64(ph.Kind))
		e.Duration(ph.Duration)
		e.Float(ph.SEU)
		e.Float(ph.MBU)
		e.Float(ph.SEL)
	}
}

// AdaptiveCampaign flies every profile with paired static/adaptive arms
// and renders the comparison table. Trials fan out across the campaign
// scheduler; output is byte-identical at any worker width.
func AdaptiveCampaign(c AdaptiveCampaignConfig) ([]AdaptiveTrial, *Table, error) {
	if len(c.Profiles) == 0 {
		return nil, nil, fmt.Errorf("experiments: adaptive campaign needs at least one profile")
	}
	if c.RateBoost <= 0 || c.ContactEvery <= 0 {
		return nil, nil, fmt.Errorf("experiments: adaptive campaign needs RateBoost and ContactEvery > 0")
	}
	if c.LinkLoss < 0 || c.LinkLoss >= 1 {
		return nil, nil, fmt.Errorf("experiments: LinkLoss %v out of [0, 1)", c.LinkLoss)
	}
	for _, p := range c.Profiles {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
	}
	// The controller config is validated (and zero weights defaulted) by
	// adapt.New; fail the campaign before the scheduler fans out.
	if _, err := adapt.New(c.Controller, nil); err != nil {
		return nil, nil, err
	}

	// Every result-affecting input participates in each trial's key:
	// the shared SEL parameters, the boost, the controller tuning, the
	// downlink knobs, the profile itself, and the trial index (the seed
	// derives from it). Workers/Telemetry/Cache are deliberately absent.
	cache := cacheArms(c.SEL.Cache, "adaptive/v1", len(c.Profiles),
		func(i int, e *resultcache.Enc) {
			encSELConfig(e, c.SEL)
			e.Float(c.RateBoost)
			e.Duration(c.ContactEvery)
			encAdaptConfig(e, c.Controller)
			e.Float(c.LinkLoss)
			e.Duration(c.Blackout)
			e.Duration(c.BulkEvery)
			e.Duration(c.Drain)
			encProfile(e, c.Profiles[i])
			e.Int(int64(i))
		},
		armCodec[AdaptiveTrial]{enc: encAdaptiveTrial, dec: decAdaptiveTrial})

	// Detector training and the golden payload run feed only computed
	// arms; a fully warm cache skips both.
	var model *linmodel.Model
	var golden [][]byte
	if !cache.AllHit() {
		base, err := TrainILD(c.SEL)
		if err != nil {
			return nil, nil, err
		}
		model = base.Model()
		if golden, err = payloadGolden(); err != nil {
			return nil, nil, err
		}
	}

	trials, err := sched.Map(len(c.Profiles), c.SEL.Workers, func(i int) (AdaptiveTrial, error) {
		return cache.CachedArm(i, func() (AdaptiveTrial, error) {
			seed := c.SEL.Seed + 9000 + int64(i)*37
			prof := c.Profiles[i].Boosted(c.RateBoost)
			// One RNG stream builds the event schedule and the flight
			// trace once per pair; both arms replay them read-only.
			rng := rand.New(rand.NewSource(seed))
			events, err := prof.Schedule(rng)
			if err != nil {
				return AdaptiveTrial{}, err
			}
			// Bubbles are injected once, at the max-posture cadence, so
			// both arms fly the identical trace; each arm is charged for
			// the bubble time its own posture schedules.
			_, flight := c.SEL.pairTrace(rng, prof.Total(), adapt.PostureFor(adapt.LevelMax).BubbleEvery)
			st, err := flyAdaptiveArm(c, prof, model, golden, events, flight, seed, nil)
			if err != nil {
				return AdaptiveTrial{}, err
			}
			ctrl, err := adapt.New(c.Controller, nil)
			if err != nil {
				return AdaptiveTrial{}, err
			}
			ad, err := flyAdaptiveArm(c, prof, model, golden, events, flight, seed, ctrl)
			if err != nil {
				return AdaptiveTrial{}, err
			}
			return AdaptiveTrial{Profile: c.Profiles[i].Name, Static: st, Adaptive: ad, Moves: ctrl.Trace()}, nil
		})
	}, sched.WithTelemetry(c.SEL.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Adaptive campaign: %d profiles, rates ×%.0f, contact every %v, link loss %g",
			len(c.Profiles), c.RateBoost, c.ContactEvery, c.LinkLoss),
		Header: []string{"Profile", "Arm", "Survived", "MissedSEL", "Detects", "WD", "SDC",
			"Bubble q/a", "Energy q/a (J)", "p0 d/e", "all d/e", "Moves", "Final"},
	}
	for _, tr := range trials {
		row := func(name string, a AdaptiveArm, moves int) {
			tbl.AddRow(tr.Profile, name, fmt.Sprint(a.Survived), fmt.Sprint(a.MissedSELs),
				fmt.Sprint(a.Detections), fmt.Sprint(a.WDResets), fmt.Sprint(a.SDC),
				fmt.Sprintf("%v/%v", a.QuietBubble.Round(time.Second), a.ActiveBubble.Round(time.Second)),
				fmt.Sprintf("%.2f/%.2f", a.QuietJ, a.ActiveJ),
				fmt.Sprintf("%d/%d", a.P0Delivered, a.P0Enqueued),
				fmt.Sprintf("%d/%d", a.AllDelivered, a.AllEnqueued),
				fmt.Sprint(moves), a.FinalLevel.String())
		}
		row("static-max", tr.Static, 0)
		row("adaptive", tr.Adaptive, len(tr.Moves))
	}
	return trials, tbl, nil
}

// refireWindow is how soon after a power cycle a new ILD firing reads
// as a refire (the biased-sensor / persistent-latchup storm signature)
// rather than a fresh detection.
const refireWindow = 5 * time.Minute

// downlinkTick is the comms simulation cadence inside a trial; the
// machine samples far faster, but radio state only needs ~1 Hz.
const downlinkTick = time.Second

// flyAdaptiveArm flies one arm over the pair-shared scaffolding
// (events and flight are read-only). ctrl nil pins the static arm at
// LevelMax; otherwise the controller moves the posture and its trace
// records every decision.
func flyAdaptiveArm(c AdaptiveCampaignConfig, prof mission.Profile, model *linmodel.Model,
	golden [][]byte, events []fault.Event, flight *trace.Trace, seed int64,
	ctrl *adapt.Controller) (AdaptiveArm, error) {
	arm := AdaptiveArm{DrainedAt: -1}

	// One detector per rung, all sharing the trained model: ThresholdA
	// is fixed at construction, so a level switch swaps detectors (and
	// resets the incoming one) instead of rebuilding.
	var dets [adapt.NumLevels]*ild.Detector
	for l := 0; l < adapt.NumLevels; l++ {
		cfg := c.SEL.ildConfig()
		cfg.ThresholdA = adapt.PostureFor(adapt.Level(l)).ILDThresholdA
		det, err := ild.NewDetector(model, cfg)
		if err != nil {
			return arm, err
		}
		dets[l] = det
	}

	level := adapt.LevelMax
	if ctrl != nil {
		level = ctrl.Level()
	}
	posture := adapt.PostureFor(level)
	bubbleLen := c.SEL.bubbleLen()

	mc := c.SEL.machineConfig(seed + 1)
	mc.Telemetry = nil // trials run in parallel; per-trial metrics stay local
	m := machine.New(mc)
	prot := &protection{m: m, det: dets[level]}
	tracker := mission.NewTracker(prof, nil)

	// Downlink leg: both arms fly the same impaired link (seeds shared).
	lcfg := downlink.DefaultLinkConfig()
	lcfg.Seed = seed + 2
	link, err := lossyLink(lcfg, c.LinkLoss, prof.Total()/3, c.Blackout)
	if err != nil {
		return arm, err
	}
	cm, err := newComms(link, downlink.DefaultTxConfig(1))
	if err != nil {
		return arm, err
	}
	// event enqueues the priority-0 payload "<key><value> t=<now>".
	event := func(key, value string, now time.Duration) {
		cm.payload = append(append(cm.payload[:0], key...), value...)
		cm.payload = appendDuration(append(cm.payload, " t="...), now)
		cm.enqueue(0, now)
	}
	note := func(t time.Duration, s adapt.Signal) {
		if ctrl != nil {
			ctrl.Note(t, s)
		}
	}
	if cm.tx.Beacon() != posture.Beacon {
		cm.tx.SetBeacon(posture.Beacon, 0, "posture "+level.String())
	}

	nextEvent := 0
	pendingSEUs := 0
	sels := selLedger{window: c.SEL.Window, since: -1}
	lastCycle := time.Duration(-refireWindow) // no refire before the first cycle
	nextContact := c.ContactEvery
	nextHk := posture.HousekeepEvery
	nextBulk := c.BulkEvery
	nextTick := downlinkTick
	var lastTick time.Duration
	var loopErr error

	m.RunTrace(flight, func(tel machine.Telemetry) {
		if loopErr != nil {
			return
		}
		phase, phaseChanged := tracker.Observe(tel.T)
		if phaseChanged {
			event("mission_phase ", phase.Kind.String(), tel.T)
		}

		for nextEvent < len(events) && events[nextEvent].T <= tel.T {
			ev := events[nextEvent]
			nextEvent++
			if ev.Kind == fault.SEL {
				injectSEL(m, ev.Amps)
			} else {
				pendingSEUs++
			}
		}

		// A latchup that outlives the detection window is a miss: the
		// hardware watchdog catches it, at reset cost.
		if sels.observe(m, tel.T) {
			arm.WDResets++
			prot.cycle(tel.T)
			sels.cleared(tel.T)
			lastCycle = tel.T
			note(tel.T, adapt.SignalWatchdogReset)
			event("watchdog_reset", "", tel.T)
		}

		if _, cycled := prot.observe(tel); cycled {
			arm.Detections++
			sig := adapt.SignalILDDetect
			if tel.T-lastCycle <= refireWindow {
				sig = adapt.SignalILDRefire
			}
			note(tel.T, sig)
			lastCycle = tel.T
			sels.cleared(tel.T)
			event("sel_detected level=", level.String(), tel.T)
		}

		if ctrl != nil {
			if d := ctrl.Observe(tel.T); d.Changed {
				level = d.Level
				posture = adapt.PostureFor(level)
				prot.det = dets[level]
				prot.det.Reset()
				if cm.tx.Beacon() != posture.Beacon {
					cm.tx.SetBeacon(posture.Beacon, tel.T, "posture "+level.String())
				}
				event("adapt_level ", level.String(), tel.T)
			}
		}

		// Charge this sample's share of the posture's measurement-bubble
		// overhead to the phase's quiet/active bucket, and the dwell.
		arm.Dwell[level] += c.SEL.SampleEvery
		share := time.Duration(float64(c.SEL.SampleEvery) * float64(bubbleLen) / float64(posture.BubbleEvery))
		if phase.Quiet() {
			arm.QuietBubble += share
		} else {
			arm.ActiveBubble += share
		}

		if tel.T >= nextHk {
			cm.payload = appendDuration(append(cm.payload[:0], "hk t="...), tel.T)
			cm.payload = append(append(cm.payload, " level="...), level.String()...)
			cm.enqueue(1, tel.T)
			nextHk = tel.T + posture.HousekeepEvery
		}
		nextBulk = cm.bulk(nextBulk, c.BulkEvery, tel.T)

		if tel.T >= nextContact {
			nextContact += c.ContactEvery
			res, err := payloadContact(posture.Plan(), seed+int64(tel.T), pendingSEUs, golden)
			if err != nil {
				loopErr = err
				return
			}
			pendingSEUs = 0
			arm.Corrected += res.corrected
			arm.Vetoed += res.vetoed
			if phase.Quiet() {
				arm.QuietJ += res.energyJ
			} else {
				arm.ActiveJ += res.energyJ
			}
			arm.SDC = arm.SDC || res.sdc
			if res.corrected > 0 || res.vetoed > 0 {
				note(tel.T, adapt.SignalEMRMismatch)
			}
		}

		if tel.T >= nextTick {
			lastTick = tel.T
			loopErr = cm.tick(tel.T)
			nextTick = tel.T + downlinkTick
		}
	})
	if loopErr == nil {
		loopErr = cm.err
	}
	if loopErr != nil {
		return arm, loopErr
	}

	// Post-mission contact extension: ARQ drains the backlog. Bubble
	// injection stretches the flown trace a little past the nominal
	// mission span, so the drain clock resumes from the last tick, not
	// from the profile total.
	drainEnd := lastTick + c.Drain
	for now := lastTick + downlinkTick; now <= drainEnd; now += downlinkTick {
		if err := cm.tick(now); err != nil {
			return arm, err
		}
		if cm.tx.Done() {
			arm.DrainedAt = now
			break
		}
	}
	arm.AllDelivered, _, arm.P0Delivered = cm.totals()
	arm.AllEnqueued, arm.P0Enqueued = cm.enq, cm.p0Enq
	arm.MissedSELs = sels.missed
	arm.Survived = !m.Damaged()
	arm.FinalLevel = level
	return arm, nil
}
