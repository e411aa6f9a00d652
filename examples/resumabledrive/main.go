// Resumable drive: the full Radshield stack in one scenario.
//
// A rover's localization run is underway when a latchup strikes. ILD
// flags it during the next quiescent bubble and commands a power cycle —
// which kills the half-finished run. Because EMR checkpoints every voted
// output to flash (inside the reliability frontier, CRC-framed), the
// restarted flight software resumes from the last completed strip
// instead of recomputing the whole map, and the final fix is identical
// to an uninterrupted run.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// --- Ground segment: train ILD on the twin. ---------------------
	selCfg := experiments.DefaultSELConfig()
	det, err := experiments.TrainILD(selCfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- Flight segment. ---------------------------------------------
	mc := selCfg.MachineConfig(1)
	m := machine.New(mc)

	// The EMR runtime persists checkpoints on its flash device.
	rt, err := emr.New(emr.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	journal, err := rt.NewJournal(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := workloads.ImageProcessing().Build(rt, 128<<10, 2026)
	if err != nil {
		log.Fatal(err)
	}
	total := len(spec.Datasets)
	fmt.Printf("drive starts: %d map strips to localize against\n", total)

	// A latchup strikes partway through the drive. The localization run
	// is modelled as one strip per 4 s of drive compute; when ILD's power
	// cycle lands, every strip not yet voted is lost.
	const strikeAt = 70 * time.Second
	rng := rand.New(rand.NewSource(9))
	drive := trace.Navigation(rng, 5*time.Minute, mc.Cores)
	drive = ild.InjectBubbles(drive, ild.BubblePolicy{BubbleLen: selCfg.BubbleLen(), Pause: 45 * time.Second})

	var cycledAt time.Duration = -1
	struck := false
	m.RunTrace(drive, func(tel machine.Telemetry) {
		if !struck && tel.T >= strikeAt {
			struck = true
			if err := m.InjectSEL(0.09); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%6s] latchup strikes (+0.09 A) mid-drive\n", tel.T.Round(time.Second))
		}
		if cycledAt < 0 && det.Observe(tel) {
			cycledAt = tel.T
			m.PowerCycle()
			fmt.Printf("[%6s] ILD flags the latchup — power cycling the coprocessor\n", tel.T.Round(time.Second))
		}
	})
	if cycledAt < 0 {
		log.Fatal("latchup never detected; drive lost")
	}

	// Strips completed before the reboot: one per 4 s of drive time.
	completed := int(cycledAt / (4 * time.Second))
	if completed > total {
		completed = total
	}
	fmt.Printf("power cycle at %v killed the run after %d/%d strips\n",
		cycledAt.Round(time.Second), completed, total)

	// First (interrupted) run: process only the strips that finished,
	// checkpointing each.
	interrupted := spec
	interrupted.Datasets = spec.Datasets[:completed]
	if _, err := rt.RunJournaled(interrupted, journal); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal holds %d bytes of voted checkpoints\n", journal.Used())

	// --- Reboot: resume from flash. -----------------------------------
	res, err := rt.RunJournaled(spec, journal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run executed %d strips (skipped %d from checkpoints)\n",
		res.Report.Datasets, total-res.Report.Datasets)

	sad, y, x, err := workloads.BestMatch(res.Outputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("localization fix: (x=%d, y=%d), SAD=%d — drive continues, chip undamaged: %v\n",
		x, y, sad, !m.Damaged())
}
