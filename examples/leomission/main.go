// End-to-end LEO SmallSat mission simulation: the full Radshield stack
// flying a typed mission profile with closed-loop adaptive protection.
//
//   - The mission flies mission.LEOWithSAA(): quiet LEO cruise with two
//     South-Atlantic-Anomaly crossings, scheduled as piecewise Poisson
//     arrivals whose rates follow the phase multipliers (MISSIONS.md).
//   - A mission.Tracker walks the profile on the sim clock; every phase
//     boundary is announced to the ground as a priority-0 frame.
//   - An adapt.Controller closes the loop: ILD detections and EMR
//     disagreements escalate the protection posture through the SAA,
//     quiet dwell relaxes it back on the far side (ADAPT ladder:
//     relaxed → nominal → elevated → max).
//   - ILD monitors telemetry continuously and power cycles on latchup;
//     at every ground-contact window the payload runs an image-matching
//     job at the posture's redundancy, with pending SEUs striking the
//     shared cache mid-job.
//
// With -downlink the phase and posture stream to a live groundstation,
// which surfaces them per link as current_phase / adapt_mode in /state.
//
// The mission survives if no latchup persists past the thermal damage
// horizon and no silently-corrupted product is downlinked.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/mission"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

func main() {
	var (
		seed   = flag.Int64("seed", 2026, "mission seed")
		boost  = flag.Float64("boost", 4000, "radiation rate boost so the 2-hour flight sees several events")
		dlAddr = flag.String("downlink", "", "stream mission events to a live groundstation at this TCP address\n(run `go run ./cmd/groundstation -listen :7007 -http :7008` first, then pass -downlink localhost:7007)")
	)
	flag.Parse()
	log.SetFlags(0)

	prof := mission.LEOWithSAA().Boosted(*boost)
	rng := rand.New(rand.NewSource(*seed))
	events, err := prof.Schedule(rng)
	if err != nil {
		log.Fatal(err)
	}
	dur := prof.Total()
	fmt.Printf("mission: %q, %v across %d phases → %d scheduled radiation events\n",
		prof.Name, dur, len(prof.Phase), len(events))

	// Ground segment: train ILD before launch. One detector per rung of
	// the adaptive ladder — the threshold is fixed at construction, so
	// switching posture means switching detectors over the same model.
	selCfg := experiments.DefaultSELConfig()
	selCfg.Seed = *seed
	base, err := experiments.TrainILD(selCfg)
	if err != nil {
		log.Fatal(err)
	}
	var dets [adapt.NumLevels]*ild.Detector
	for l := adapt.LevelRelaxed; l <= adapt.LevelMax; l++ {
		cfg := ild.DefaultConfig()
		cfg.SampleEvery = selCfg.SampleEvery
		cfg.DetectionWindow = selCfg.Window
		cfg.ThresholdA = adapt.PostureFor(l).ILDThresholdA
		if dets[l], err = ild.NewDetector(base.Model(), cfg); err != nil {
			log.Fatal(err)
		}
	}

	// The closed loop.
	ctrl, err := adapt.New(adapt.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	tracker := mission.NewTracker(prof, nil)

	// Flight segment.
	mc := machine.DefaultConfig()
	mc.SampleEvery = selCfg.SampleEvery
	mc.SensorSeed = *seed + 1
	m := machine.New(mc)
	flight := trace.FlightSoftware(rng, dur, mc.Cores)
	flight = ild.InjectBubbles(flight, ild.BubblePolicy{BubbleLen: 4 * time.Second, Pause: 3 * time.Minute})

	// Downlink: phase transitions, posture moves, radiation events and
	// ILD verdicts go to the ground as priority-0 frames, product
	// summaries as housekeeping; the same ARQ path the downlink campaign
	// stresses, pointed at a real server.
	var feed *downlink.Feed
	if *dlAddr != "" {
		var ferr error
		if feed, ferr = downlink.DialFeed(*dlAddr, 1); ferr != nil {
			log.Fatal(ferr)
		}
		defer feed.Close()
		fmt.Printf("downlink engaged: %s\n", *dlAddr)
	}
	ship := func(vc uint8, now time.Duration, msg string) {
		if feed == nil {
			return
		}
		if err := feed.Enqueue(vc, []byte(msg), now); err != nil {
			log.Fatalf("downlink: %v", err)
		}
	}
	// Announce the opening phase and posture so /state is populated from
	// the first contact, not the first transition.
	ship(0, 0, fmt.Sprintf("mission_phase %s t=0s", tracker.Phase().Kind))
	ship(0, 0, fmt.Sprintf("adapt_level %s t=0s", ctrl.Level()))

	var (
		nextEvent                   = 0
		selsSurvived, seusOutvoted  int
		pendingSEUs                 int
		contactEvery                = 15 * time.Minute
		nextContact                 = contactEvery
		downlinked, corruptProducts int
		retriedProducts             int
	)

	m.RunTrace(flight, func(tel machine.Telemetry) {
		// Walk the mission profile; announce every boundary.
		if phase, changed := tracker.Observe(tel.T); changed {
			fmt.Printf("[%10s] mission: entering %s (SEU ×%g, SEL ×%g)\n",
				tel.T.Round(time.Second), phase.Kind, phase.SEU, phase.SEL)
			ship(0, tel.T, fmt.Sprintf("mission_phase %s t=%v", phase.Kind, tel.T))
		}

		// Deliver scheduled radiation events.
		for nextEvent < len(events) && events[nextEvent].T <= tel.T {
			ev := events[nextEvent]
			nextEvent++
			switch ev.Kind {
			case fault.SEL:
				fmt.Printf("[%10s] radiation: latchup strikes (+%.3f A)\n", tel.T.Round(time.Second), ev.Amps)
				if err := m.InjectSEL(ev.Amps); err != nil {
					log.Fatal(err)
				}
				ship(0, tel.T, fmt.Sprintf("sel_strike t=%v amps=%.3f", tel.T, ev.Amps))
			default:
				pendingSEUs++ // strikes the payload during its next run
			}
		}

		// ILD watches continuously at the posture's threshold.
		level := ctrl.Level()
		if det := dets[level]; det.Observe(tel) {
			fmt.Printf("[%10s] ILD: latchup detected (residual %.3f A) — power cycling\n",
				tel.T.Round(time.Second), det.Residual())
			ship(0, tel.T, fmt.Sprintf("sel_detected t=%v residual=%.3f", tel.T, det.Residual()))
			m.PowerCycle()
			det.Reset()
			selsSurvived++
			ctrl.Note(tel.T, adapt.SignalILDDetect)
		}

		// Close the loop: detections escalate through the SAA, quiet
		// dwell relaxes on the far side.
		if d := ctrl.Observe(tel.T); d.Changed {
			fmt.Printf("[%10s] adapt: posture → %s\n", tel.T.Round(time.Second), d.Level)
			ship(0, tel.T, fmt.Sprintf("adapt_level %s t=%v", d.Level, tel.T))
			dets[d.Level].Reset()
		}

		// Ground contact: run the payload job at the posture's
		// redundancy. A failed vote is a *detected* error — the flight
		// software rejects the product, tells the controller, and reruns
		// the job (the upsets were transient). Only an undetected wrong
		// product would count as corrupt.
		if tel.T >= nextContact {
			nextContact += contactEvery
			p := adapt.PostureFor(ctrl.Level())
			ok, corrected := runPayload(p, *seed+int64(tel.T), pendingSEUs)
			seusOutvoted += corrected
			pendingSEUs = 0
			if !ok {
				retriedProducts++
				ctrl.Note(tel.T, adapt.SignalEMRMismatch)
				ok, _ = runPayload(p, *seed+int64(tel.T)+1, 0)
			}
			downlinked++
			if !ok {
				corruptProducts++
			}
			ship(1, tel.T, fmt.Sprintf("product t=%v ok=%v corrected=%d posture=%s", tel.T, ok, seusOutvoted, p.Level))
		}

		// The contact-window feed drains continuously: one ARQ tick per
		// telemetry sample keeps the flight recorder small.
		if feed != nil {
			if err := feed.Tick(tel.T); err != nil {
				log.Fatalf("downlink: %v", err)
			}
		}
	})

	if feed != nil {
		end := m.Clock().Now()
		if _, err := feed.Drain(end, end+10*time.Minute, time.Second); err != nil {
			log.Fatalf("downlink: %v", err)
		}
		ds := feed.Stats()
		fmt.Printf("downlink: %d frames acknowledged by the ground station\n", ds.Acked)
	}

	fmt.Println()
	fmt.Printf("mission complete: %v simulated\n", m.Clock().Now().Round(time.Minute))
	fmt.Printf("  latchups cleared by ILD: %d, power cycles: %d, chip damaged: %v\n",
		selsSurvived, m.PowerCycles(), m.Damaged())
	fmt.Printf("  products downlinked: %d, upsets outvoted by EMR: %d, vote-failure retries: %d, corrupt products: %d\n",
		downlinked, seusOutvoted, retriedProducts, corruptProducts)
	fmt.Printf("  adaptive posture: %d ladder moves, final %s\n", len(ctrl.Trace()), ctrl.Level())
	for _, mv := range ctrl.Trace() {
		fmt.Printf("    [%10s] %s → %s (%s, score %g)\n", mv.T.Round(time.Second), mv.From, mv.To, mv.Reason, mv.Score)
	}
	for l := adapt.LevelRelaxed; l <= adapt.LevelMax; l++ {
		if d := ctrl.Dwell(l); d > 0 {
			fmt.Printf("    dwell at %s: %v\n", l, d.Round(time.Second))
		}
	}
	if m.Damaged() || corruptProducts > 0 {
		log.Fatal("MISSION LOST")
	}
	fmt.Println("  mission survives — shields up.")
}

// runPayload executes one localization job at the posture's redundancy
// (serial+checksum, DMR or TMR), injecting the backlog of scheduled
// SEUs into the shared cache mid-run. It reports whether the product is
// trustworthy and how many votes were corrected.
func runPayload(p adapt.Posture, seed int64, seus int) (ok bool, corrected int) {
	plan := p.Plan()
	cfg := emr.DefaultConfig()
	cfg.Scheme, cfg.Executors = plan.Scheme, plan.Executors
	rt, err := emr.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := workloads.ImageProcessing().Build(rt, 64<<10, 2026)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	spec.Hook = func(hp *emr.HookPoint) {
		if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < 0.02 {
			reg := hp.Regions[rng.Intn(len(hp.Regions))]
			f := fault.RandomFlip(rng, reg.Len)
			if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
				remaining--
			}
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, _, err := workloads.BestMatch(res.Outputs); err != nil {
		return false, res.Report.Votes.Corrected
	}
	return res.Report.Votes.Failed == 0, res.Report.Votes.Corrected
}
