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
	"math"
	"os"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/groundlink"
	"radshield/internal/guard"
	"radshield/internal/machine"
	"radshield/internal/mission"
	"radshield/internal/workloads"
)

// checkFlags rejects a -boost leomission cannot fly, before any work:
// one that is not a finite value above 0 gives the radiation schedule
// an arrival rate whose draw never reaches the end of the flight, and
// one so large that the boosted profile fails validation asks for more
// events than the schedule may hold.
func checkFlags(boost float64) error {
	if !(boost > 0) || math.IsInf(boost, 1) {
		return fmt.Errorf("-boost %v, want a finite value above 0", boost)
	}
	if err := mission.LEOWithSAA().Boosted(boost).Validate(); err != nil {
		return fmt.Errorf("-boost %v: %v", boost, err)
	}
	return nil
}

func main() {
	var (
		seed   = flag.Int64("seed", 2026, "mission seed")
		boost  = flag.Float64("boost", 4000, "radiation rate boost so the 2-hour flight sees several events")
		dlAddr = flag.String("downlink", "", "stream mission events to a live groundstation at this TCP address\n(run `go run ./cmd/groundstation -listen :7007 -http :7008` first, then pass -downlink localhost:7007)")
	)
	flag.Parse()
	log.SetFlags(0)
	if err := checkFlags(*boost); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	// The flight plan: the profile's radiation events, then the
	// campaigns' bubbled flight trace, from one stream.
	prof := mission.LEOWithSAA().Boosted(*boost)
	selCfg := experiments.DefaultSELConfig()
	selCfg.Seed = *seed
	events, _, flight, err := selCfg.FlightPlan(prof, *seed, selCfg.BubblePause())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mission: %q, %v across %d phases → %d scheduled radiation events\n",
		prof.Name, prof.Total(), len(prof.Phase), len(events))

	// Ground segment: train ILD before launch. The one detector flies at
	// the posture's threshold, retuned whenever the posture moves.
	det, err := experiments.TrainILD(selCfg)
	if err != nil {
		log.Fatal(err)
	}

	// The closed loop.
	ctrl, err := adapt.New(adapt.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := det.SetThreshold(adapt.PostureFor(ctrl.Level()).ILDThresholdA); err != nil {
		log.Fatal(err)
	}
	tracker := mission.NewTracker(prof, nil)

	// Flight segment: the campaigns' board.
	m := machine.New(selCfg.MachineConfig(*seed + 1))
	prot := guard.NewProtection(m, det, nil)

	// Downlink: phase transitions, posture moves, radiation events and
	// ILD verdicts go to the ground as priority-0 frames, product
	// summaries as housekeeping; the same ARQ path the downlink campaign
	// stresses, pointed at a real server.
	var feed *groundlink.Feed
	if *dlAddr != "" {
		var ferr error
		if feed, ferr = groundlink.DialFeed(*dlAddr, 1); ferr != nil {
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
		if _, residual, cycled := prot.Observe(tel); cycled {
			fmt.Printf("[%10s] ILD: latchup detected (residual %.3f A) — power cycling\n",
				tel.T.Round(time.Second), residual)
			ship(0, tel.T, fmt.Sprintf("sel_detected t=%v residual=%.3f", tel.T, residual))
			selsSurvived++
			ctrl.Note(tel.T, adapt.SignalILDDetect)
		}

		// Close the loop: detections escalate through the SAA, quiet
		// dwell relaxes on the far side.
		if d := ctrl.Observe(tel.T); d.Changed {
			fmt.Printf("[%10s] adapt: posture → %s\n", tel.T.Round(time.Second), d.Level)
			ship(0, tel.T, fmt.Sprintf("adapt_level %s t=%v", d.Level, tel.T))
			if err := det.SetThreshold(adapt.PostureFor(d.Level).ILDThresholdA); err != nil {
				log.Fatal(err)
			}
		}

		// Ground contact: run the payload job at the posture's
		// redundancy. A failed vote is a *detected* error — the flight
		// software rejects the product, tells the controller, and reruns
		// the job (the upsets were transient). Only an undetected wrong
		// product would count as corrupt.
		if tel.T >= nextContact {
			nextContact += contactEvery
			p := adapt.PostureFor(ctrl.Level())
			res := strikePayload(p.Plan(), *seed+int64(tel.T), pendingSEUs)
			seusOutvoted += res.Report.Votes.Corrected
			pendingSEUs = 0
			ok := trusted(res)
			if !ok {
				retriedProducts++
				ctrl.Note(tel.T, adapt.SignalEMRMismatch)
				ok = trusted(strikePayload(p.Plan(), *seed+int64(tel.T)+1, 0))
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
		end := m.Now()
		if _, err := feed.Drain(end, end+10*time.Minute, time.Second); err != nil {
			log.Fatalf("downlink: %v", err)
		}
		ds := feed.Stats()
		fmt.Printf("downlink: %d frames acknowledged by the ground station\n", ds.Acked)
	}

	fmt.Println()
	fmt.Printf("mission complete: %v simulated\n", m.Now().Round(time.Minute))
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

// strikePayload runs one localization job at the posture's plan
// (serial+checksum, DMR or TMR) on a 64 KiB map, with the backlog of
// scheduled SEUs striking the shared cache mid-run, each read struck
// with probability 0.02.
func strikePayload(plan guard.Plan, seed int64, seus int) *emr.Result {
	res, err := experiments.StrikePayload(plan, 64<<10, 0.02, seed, seus)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// trusted reports whether a product can be downlinked: every vote held
// and the best match decodes.
func trusted(res *emr.Result) bool {
	if _, _, _, err := workloads.BestMatch(res.Outputs); err != nil {
		return false
	}
	return res.Report.Votes.Failed == 0
}
