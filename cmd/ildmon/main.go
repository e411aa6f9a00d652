// Command ildmon runs a live ILD monitoring session over a simulated
// SmallSat mission timeline: it trains the detector on the ground twin,
// then plays a flight-software trace with scheduled latchup strikes,
// printing telemetry and detector decisions as the mission unfolds.
//
// With -sensor-fault it also breaks the current sensor mid-mission and
// puts the guard supervisor in the loop: the ladder demotes the
// detector as the fault is recognised, commands precautionary power
// cycles while blind, and re-promotes when the sensor recovers.
//
// Usage:
//
//	ildmon -hours 2 -sel-at 45m -sel-amps 0.07
//	ildmon -hours 2 -sensor-fault stuck -fault-at 30m -fault-for 20m
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/experiments"
	"radshield/internal/guard"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/power"
	"radshield/internal/telemetry"
	"radshield/internal/trace"
)

// parseFaultKind maps the -sensor-fault flag onto the fault model.
func parseFaultKind(s string) (power.FaultKind, error) {
	for _, k := range []power.FaultKind{
		power.FaultNone, power.FaultDropout, power.FaultStuck, power.FaultOffset, power.FaultGarbage,
	} {
		if s == k.String() {
			return k, nil
		}
	}
	return power.FaultNone, fmt.Errorf("unknown sensor fault %q (dropout, stuck, offset, garbage)", s)
}

func main() {
	var (
		hours     = flag.Float64("hours", 2, "mission length in simulated hours")
		selAt     = flag.Duration("sel-at", 45*time.Minute, "when the latchup strikes")
		selAmps   = flag.Float64("sel-amps", 0.07, "latchup current increase (A)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		report    = flag.Duration("report", 5*time.Minute, "telemetry print interval")
		dump      = flag.String("dump", "", "write the fine-grained telemetry ring (CSV) to this file")
		telOut    = flag.String("telemetry", "", "write a JSON metrics snapshot to this file at exit ('-' for stdout)")
		faultKind = flag.String("sensor-fault", "none", "break the current sensor: dropout, stuck, offset or garbage (engages the guard supervisor)")
		faultAt   = flag.Duration("fault-at", 30*time.Minute, "when the sensor fault starts")
		faultFor  = flag.Duration("fault-for", 0, "sensor fault length; 0 = permanent")
		faultOfs  = flag.Float64("fault-offset", 0.12, "bias magnitude for -sensor-fault offset (A)")
		dlAddr    = flag.String("downlink", "", "stream mission events to a groundstation at this TCP address (see cmd/groundstation)")
		dlLink    = flag.Int("link-id", 1, "spacecraft link id for -downlink")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("ildmon: ")

	kind, err := parseFaultKind(*faultKind)
	if err != nil {
		log.Fatal(err)
	}

	cfg := experiments.DefaultSELConfig()
	cfg.Seed = *seed
	fmt.Println("training ILD on the ground twin (quiescent trace)...")
	det, err := experiments.TrainILD(cfg)
	if err != nil {
		log.Fatalf("training failed: %v", err)
	}
	model := det.Model()
	fmt.Printf("model fitted: %d features, intercept %.4f A\n\n", len(model.Weights), model.Intercept)

	var reg *telemetry.Registry
	if *telOut != "" {
		reg = telemetry.NewRegistry(telemetry.DefaultEventCap)
	}
	ins := ild.NewInstruments(reg)
	det.SetInstruments(ins)

	mc := machine.DefaultConfig()
	mc.SampleEvery = cfg.SampleEvery
	mc.SensorSeed = *seed + 1
	mc.Telemetry = reg
	m := machine.New(mc)

	var sup *guard.Supervisor
	if kind != power.FaultNone {
		if err := m.Sensor().ScheduleFault(power.SensorFault{
			Kind: kind, Start: *faultAt, Duration: *faultFor, OffsetA: *faultOfs,
		}); err != nil {
			log.Fatal(err)
		}
		scfg := guard.DefaultSupervisorConfig()
		scfg.RefireWindow = 10 * time.Minute // spans the 3-minute bubble cadence
		if sup, err = guard.NewSupervisor(det, scfg); err != nil {
			log.Fatal(err)
		}
		sup.SetInstruments(guard.NewInstruments(reg))
		forStr := "permanently"
		if *faultFor > 0 {
			forStr = fmt.Sprintf("for %v", *faultFor)
		}
		fmt.Printf("sensor fault scheduled: %v at %v %s — guard supervisor engaged\n", kind, *faultAt, forStr)
	}

	// Downlink: mission events stream to a live ground station with full
	// ARQ; the guard supervisor's mode changes drive beacon-mode
	// degradation on the same transmitter.
	var feed *downlink.Feed
	if *dlAddr != "" {
		if *dlLink < 1 || *dlLink > 0xFFFF {
			log.Fatalf("-link-id %d out of range [1, 65535]", *dlLink)
		}
		if feed, err = downlink.DialFeed(*dlAddr, uint16(*dlLink)); err != nil {
			log.Fatal(err)
		}
		defer feed.Close()
		fmt.Printf("downlink engaged: link %d to %s\n", *dlLink, *dlAddr)
		if sup != nil {
			sup.OnModeChange(func(t time.Duration, from, to guard.Mode, reason string) {
				feed.SetBeacon(to > from, t, reason)
			})
		}
	}
	// enqueueEvent ships a priority-0 event when the downlink is up.
	enqueueEvent := func(now time.Duration, msg string) {
		if feed == nil {
			return
		}
		if err := feed.Enqueue(0, []byte(msg), now); err != nil {
			log.Fatalf("downlink: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(*seed + 2))
	mission := trace.FlightSoftware(rng, time.Duration(*hours*float64(time.Hour)), mc.Cores)
	mission = ild.InjectBubbles(mission, ild.BubblePolicy{BubbleLen: 4 * time.Second, Pause: 3 * time.Minute, Instruments: ins})

	fmt.Printf("mission start: %v of flight software, SEL strike at %v (+%.3f A)\n",
		mission.Total().Round(time.Second), *selAt, *selAmps)

	// Fine-grained telemetry ring for post-incident analysis (§5 of the
	// paper: definitive SEL attribution from the ground). The recorder
	// drives the detector itself, so it only runs when the guard
	// supervisor is not in the loop.
	var rec *ild.Recorder
	if sup == nil {
		if rec, err = ild.NewRecorder(det, 60000); err != nil {
			log.Fatalf("recorder: %v", err)
		}
	} else if *dump != "" {
		log.Fatal("-dump is unavailable with -sensor-fault: the guard supervisor owns the detector")
	}

	var (
		struck     bool
		detectedAt = time.Duration(-1)
		nextReport = *report
	)
	m.RunTrace(mission, func(tel machine.Telemetry) {
		if !struck && tel.T >= *selAt {
			struck = true
			if err := m.InjectSEL(*selAmps); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%8s] *** latchup strikes (+%.3f A) — current now %.3f A\n",
				tel.T.Round(time.Second), *selAmps, tel.CurrentA)
			enqueueEvent(tel.T, fmt.Sprintf("sel_strike t=%v amps=%.3f", tel.T, *selAmps))
		}

		fired := false
		if sup != nil {
			d := sup.Observe(tel)
			if d.Demoted {
				fmt.Printf("[%8s] --- guard demotes detector to %v (%s)\n",
					tel.T.Round(time.Second), d.Mode, d.Reason)
				enqueueEvent(tel.T, fmt.Sprintf("guard_demote t=%v mode=%v reason=%s", tel.T, d.Mode, d.Reason))
			}
			if d.Promoted {
				fmt.Printf("[%8s] +++ sensor healthy again — guard promotes detector to %v\n",
					tel.T.Round(time.Second), d.Mode)
				enqueueEvent(tel.T, fmt.Sprintf("guard_promote t=%v mode=%v", tel.T, d.Mode))
			}
			if d.BlindCycle {
				fmt.Printf("[%8s] ~~~ sensor blind — precautionary power cycle\n", tel.T.Round(time.Second))
				m.PowerCycle()
				sup.NotePowerCycle(tel.T)
				enqueueEvent(tel.T, fmt.Sprintf("blind_cycle t=%v", tel.T))
			}
			fired = d.Fired
			if fired {
				fmt.Printf("[%8s] !!! %v flags an SEL — commanding power cycle\n",
					tel.T.Round(time.Second), d.Mode)
				m.PowerCycle()
				sup.NotePowerCycle(tel.T)
				enqueueEvent(tel.T, fmt.Sprintf("sel_detected t=%v mode=%v", tel.T, d.Mode))
			}
		} else if rec.Observe(tel) {
			fired = true
			residual := det.Residual() // Reset zeroes it
			fmt.Printf("[%8s] !!! ILD flags an SEL (residual %.4f A) — commanding power cycle\n",
				tel.T.Round(time.Second), residual)
			m.PowerCycle()
			det.Reset()
			enqueueEvent(tel.T, fmt.Sprintf("sel_detected t=%v residual=%.4f", tel.T, residual))
		}
		if fired && detectedAt < 0 {
			detectedAt = tel.T
			if struck {
				ins.ObserveLatency(tel.T - *selAt)
			} else {
				ins.CountFalseTrip()
			}
		}

		if tel.T >= nextReport {
			nextReport += *report
			if feed != nil {
				hk := fmt.Sprintf("hk t=%v current=%.3f instr=%.2e", tel.T, tel.CurrentA, tel.TotalInstrPerSec())
				if err := feed.Enqueue(1, []byte(hk), tel.T); err != nil {
					log.Fatalf("downlink: %v", err)
				}
			}
			state := "quiescent"
			if !det.Quiescent(tel) {
				state = "busy"
			}
			if sup != nil {
				fmt.Printf("[%8s] current %.3f A  instr %.2e/s  (%s, guard: %v)\n",
					tel.T.Round(time.Second), tel.CurrentA, tel.TotalInstrPerSec(), state, sup.Mode())
			} else {
				fmt.Printf("[%8s] current %.3f A  instr %.2e/s  (%s)\n",
					tel.T.Round(time.Second), tel.CurrentA, tel.TotalInstrPerSec(), state)
			}
		}

		if feed != nil {
			if err := feed.Tick(tel.T); err != nil {
				log.Fatalf("downlink: %v", err)
			}
		}
	})

	if feed != nil {
		// Mission over: the ground pass is continuous from here, so
		// beacon-mode restraint no longer applies; drain the flight
		// recorder fully before reporting.
		end := mission.Total()
		feed.SetBeacon(false, end, "mission_complete")
		drainedAt, err := feed.Drain(end, end+10*time.Minute, time.Second)
		if err != nil {
			log.Fatalf("downlink: %v", err)
		}
		ds := feed.Stats()
		fmt.Printf("downlink drained at %v: %d frames sent, %d acked, %d retransmits, %d beacons\n",
			drainedAt.Round(time.Second), ds.Sent, ds.Acked, ds.Retransmits, ds.Beacons)
	}

	if *dump != "" && rec != nil {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.Dump(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry ring (%d records) written to %s\n", rec.Len(), *dump)
	}

	if *telOut != "" {
		out := os.Stdout
		if *telOut != "-" {
			f, err := os.Create(*telOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := reg.Snapshot().WriteJSON(out); err != nil {
			log.Fatal(err)
		}
		if *telOut != "-" {
			fmt.Printf("metrics snapshot written to %s\n", *telOut)
		}
	}

	fmt.Println()
	if sup != nil {
		fmt.Printf("guard: mode %v, %d demotions, %d promotions, %d blind cycles\n",
			sup.Mode(), sup.Demotions(), sup.Promotions(), sup.BlindCycles())
	}
	switch {
	case !struck:
		fmt.Println("mission ended before the scheduled strike; no SEL occurred")
	case detectedAt >= 0:
		latency := detectedAt - *selAt
		fmt.Printf("latchup detected %v after the strike (thermal damage horizon: %v)\n",
			latency.Round(time.Second), mc.SELDamageAfter)
		fmt.Printf("power cycles: %d, chip damaged: %v\n", m.PowerCycles(), m.Damaged())
		if m.Damaged() {
			os.Exit(1)
		}
	case sup != nil && !m.Damaged():
		// Never "detected", but a blind precautionary cycle may still have
		// cleared it before the damage horizon — the guard's whole point.
		fmt.Printf("latchup cleared by precautionary cycling (%d power cycles), chip damaged: false\n",
			m.PowerCycles())
	default:
		fmt.Printf("MISSION LOST: latchup never detected; damaged=%v\n", m.Damaged())
		os.Exit(1)
	}
}
