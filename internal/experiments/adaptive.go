package experiments

import (
	"fmt"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/fault"
	"radshield/internal/guard"
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
	// RateBoost compresses mission time the way the survival campaign
	// does (mission.Profile.Boosted): SEL rates ×RateBoost, SEU rates
	// ×RateBoost/10.
	RateBoost float64
	// Controller tunes the adaptive arm's ladder (see adapt.Config).
	Controller adapt.Config
	// ContactEvery is the payload-contact cadence: each contact runs the
	// EMR payload under the posture's redundancy rung with the accrued
	// SEU backlog striking the cache.
	ContactEvery time.Duration

	// Drain is the downlink leg's post-mission budget for ARQ to
	// finish (see adaptiveLinkLoss for the leg's link).
	Drain time.Duration
}

// The adaptive campaign's downlink leg: a loss rate over the whole
// mission (drop = adaptiveLinkLoss, corrupt = half of it, reorder a
// quarter), one blackout of adaptiveBlackout opening at a third of the
// mission, and a bulk-science frame every adaptiveBulkEvery.
const (
	adaptiveLinkLoss  = 0.1
	adaptiveBlackout  = 2 * time.Minute
	adaptiveBulkEvery = 30 * time.Second
)

// DefaultAdaptiveCampaignConfig flies the full mission catalog with the
// default controller tuning.
func DefaultAdaptiveCampaignConfig() AdaptiveCampaignConfig {
	return AdaptiveCampaignConfig{
		SEL:          DefaultSELConfig(),
		Profiles:     mission.Catalog(),
		RateBoost:    3000,
		Controller:   adapt.DefaultConfig(),
		ContactEvery: 15 * time.Minute,
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
	Corrected  int  // payload datasets whose vote outvoted a replica
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
	for _, p := range c.Profiles {
		if err := p.Boosted(c.RateBoost).Validate(); err != nil {
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
	// drain budget, the profile itself, and the trial index (the seed
	// derives from it). Workers/Telemetry/Cache are deliberately absent.
	cache := cacheArms[AdaptiveTrial](c.SEL.Cache, "adaptive", len(c.Profiles),
		func(i int, e *resultcache.Enc) {
			encSELConfig(e, c.SEL)
			e.Float(c.RateBoost)
			e.Duration(c.ContactEvery)
			e.Value(c.Controller)
			e.Duration(c.Drain)
			e.Value(c.Profiles[i])
			e.Int(int64(i))
		})

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
			// One flight plan per pair; both arms fly it read-only.
			// Bubbles are injected once, at the max-posture cadence, so
			// both arms fly the identical trace; each arm is charged for
			// the bubble time its own posture schedules.
			events, _, flight, err := c.SEL.FlightPlan(prof, seed, adapt.PostureFor(adapt.LevelMax).BubbleEvery)
			if err != nil {
				return AdaptiveTrial{}, err
			}
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
			len(c.Profiles), c.RateBoost, c.ContactEvery, adaptiveLinkLoss),
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

	level := adapt.LevelMax
	if ctrl != nil {
		level = ctrl.Level()
	}
	posture := adapt.PostureFor(level)
	bubbleLen := c.SEL.BubbleLen()

	// One detector on the trained model, retuned to the posture's
	// threshold whenever the posture moves.
	icfg := c.SEL.ildConfig()
	icfg.ThresholdA = posture.ILDThresholdA
	det, err := ild.NewDetector(model, icfg)
	if err != nil {
		return arm, err
	}

	mc := c.SEL.MachineConfig(seed + 1)
	mc.Telemetry = nil // trials run in parallel; per-trial metrics stay local
	m := machine.New(mc)
	prot := guard.NewProtection(m, det, nil)
	tracker := mission.NewTracker(prof, nil)

	// Downlink leg: both arms fly the same impaired link (seeds shared).
	lcfg := downlink.DefaultLinkConfig()
	lcfg.Seed = seed + 2
	link, err := lossyLink(lcfg, adaptiveLinkLoss, prof.Total()/3, adaptiveBlackout)
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
		cm.payload = append(append(cm.payload, " t="...), now.String()...)
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

	rad := radiation{events: events}
	sels := selLedger{window: c.SEL.Window, since: -1}
	lastCycle := time.Duration(-refireWindow) // no refire before the first cycle
	nextContact := c.ContactEvery
	nextHk := posture.HousekeepEvery
	nextBulk := adaptiveBulkEvery
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

		rad.deliver(m, tel.T)

		// A latchup that outlives the detection window is a miss: the
		// hardware watchdog catches it, at reset cost.
		if sels.observe(m, tel.T) {
			arm.WDResets++
			prot.Cycle(tel.T)
			sels.cleared(tel.T)
			lastCycle = tel.T
			note(tel.T, adapt.SignalWatchdogReset)
			event("watchdog_reset", "", tel.T)
		}

		if _, _, cycled := prot.Observe(tel); cycled {
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
				if loopErr = det.SetThreshold(posture.ILDThresholdA); loopErr != nil {
					return
				}
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
			cm.payload = append(append(cm.payload[:0], "hk t="...), tel.T.String()...)
			cm.payload = append(append(cm.payload, " level="...), level.String()...)
			cm.enqueue(1, tel.T)
			nextHk = tel.T + posture.HousekeepEvery
		}
		nextBulk = cm.bulk(nextBulk, adaptiveBulkEvery, tel.T)

		if tel.T >= nextContact {
			nextContact += c.ContactEvery
			res, err := rad.payloadContact(posture.Plan(), seed+int64(tel.T), golden)
			if err != nil {
				loopErr = err
				return
			}
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
