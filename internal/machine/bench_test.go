package machine_test

import (
	"math/rand"
	"testing"
	"time"

	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

// BenchmarkRunTrace measures the host cost of one simulated sample as
// the flight campaigns pay it: a 10-minute flight-software trace played
// at the default 1 ms telemetry cadence, once with no callback (the
// board step, the counter read and the six sensor draws) and once with
// an ILD detector observing every sample. It reports ns/sample;
// PERFORMANCE.md records the numbers.
func BenchmarkRunTrace(b *testing.B) {
	cfg := machine.DefaultConfig()
	tr := trace.FlightSoftware(rand.New(rand.NewSource(1)), 10*time.Minute, cfg.Cores)

	trainer := ild.NewTrainer(ild.DefaultConfig())
	machine.New(cfg).RunTrace(trace.Quiescent(rand.New(rand.NewSource(2)), 10*time.Second, 5*time.Second),
		func(tel machine.Telemetry) { trainer.Add(tel) })
	det, err := trainer.Fit()
	if err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name     string
		onSample func(machine.Telemetry)
	}{
		{"callback=none", nil},
		{"callback=ild", func(tel machine.Telemetry) { det.Observe(tel) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			samples := 0
			for i := 0; i < b.N; i++ {
				samples += machine.New(cfg).RunTrace(tr, bc.onSample)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}
