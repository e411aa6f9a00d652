// Quickstart: protect a computation against single-event upsets with
// EMR, and watch a latchup get caught by ILD — the two Radshield
// components in their smallest usable form.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"radshield/internal/emr"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

func main() {
	log.SetFlags(0)

	// --- Part 1: EMR in five steps -----------------------------------
	// 1. Build a runtime: 3 executors, ECC-DRAM reliability frontier.
	rt, err := emr.New(emr.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Stage input data inside the reliability frontier.
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	ref, err := rt.LoadInput("telemetry-frame", data)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Declare datasets: one job per 512-byte slice.
	var datasets []emr.Dataset
	for off := uint64(0); off < 4096; off += 512 {
		frame, err := ref.Slice(off, 512)
		if err != nil {
			log.Fatal(err)
		}
		datasets = append(datasets, emr.Dataset{
			Inputs: []emr.InputRef{frame},
		})
	}

	// 4. Express the computation as a job function.
	spec := emr.Spec{
		Name:     "frame-checksum",
		Datasets: datasets,
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			var sum uint32
			for _, b := range inputs[0] {
				sum = sum*16777619 ^ uint32(b)
			}
			// Append to dst, the free tail of the executor's output
			// buffer, so the output costs no allocation.
			return append(dst, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)), nil
		},
		CyclesPerByte: 4,
	}

	// 5. Run. Every job executes three times; outputs are voted.
	res, err := rt.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EMR: %d checksums computed, %d unanimous votes, runtime %v, energy %.3f J\n",
		len(res.Outputs), res.Report.Votes.Unanimous, res.Report.Makespan, res.Report.EnergyJ)

	// --- Part 2: ILD in four steps ------------------------------------
	// 1. Build the (simulated) board and train the detector on a
	//    quiescent ground trace — the pre-launch procedure.
	m := machine.New(machine.DefaultConfig())
	trainer := ild.NewTrainer(ild.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	m.RunTrace(trace.Quiescent(rng, 30*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		trainer.Add(tel)
	})
	det, err := trainer.Fit()
	if err != nil {
		log.Fatal(err)
	}

	// 2. A micro-latchup strikes: +0.07 A, invisible to any static
	//    threshold.
	if err := m.InjectSEL(0.07); err != nil {
		log.Fatal(err)
	}

	// 3. Keep observing telemetry; ILD flags the excess within seconds
	//    of quiescence.
	var caughtAt time.Duration = -1
	m.RunTrace(trace.Quiescent(rng, 20*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		if caughtAt < 0 && det.Observe(tel) {
			caughtAt = tel.T
		}
	})
	if caughtAt < 0 {
		log.Fatal("ILD missed the latchup")
	}

	// 4. Power cycle to clear the residual charge before thermal damage.
	m.PowerCycle()
	fmt.Printf("ILD: +0.07 A latchup flagged at t=%v (residual %.3f A); power cycled, chip undamaged: %v\n",
		caughtAt.Round(time.Millisecond), det.Residual(), !m.Damaged())
}
