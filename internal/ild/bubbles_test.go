package ild

import (
	"math/rand"
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/machine"
	"radshield/internal/trace"
)

func TestOverheadFractionPaperValue(t *testing.T) {
	p := DefaultBubblePolicy()
	got := p.OverheadFraction()
	// 3 s per 180 s ≈ 1.67 % (the paper rounds this to 2 %).
	if got < 0.016 || got > 0.017 {
		t.Fatalf("overhead fraction = %v, want 3/180", got)
	}
}

func TestWorstCaseOverheadPerHour(t *testing.T) {
	p := DefaultBubblePolicy()
	meas, reboot := p.WorstCaseOverheadPerHour(19 * time.Second)
	if meas != time.Minute { // 3600 × 3/180 = 60 s
		t.Fatalf("measurement overhead = %v, want 60s", meas)
	}
	if reboot != time.Minute+19*time.Second {
		t.Fatalf("with-reboot overhead = %v, want 79s", reboot)
	}
}

func TestInjectBubblesIntoLongWorkload(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Segment{
		Duration: 10 * time.Minute,
		Kind:     trace.Workload,
		Loads:    []cpu.Load{cpu.ComputeLoad},
	})
	p := DefaultBubblePolicy()
	out := InjectBubbles(tr, p)

	var bubbles int
	var bubbleTime, workTime time.Duration
	for _, s := range out.Segments {
		if s.Kind == trace.Workload {
			workTime += s.Duration
		} else {
			bubbles++
			bubbleTime += s.Duration
		}
	}
	if workTime != 10*time.Minute {
		t.Fatalf("workload time changed: %v", workTime)
	}
	// 600 s of compute at one bubble per 180 s → 3 bubbles (at 180, 360,
	// 540 s of compute).
	if bubbles != 3 {
		t.Fatalf("bubbles = %d, want 3", bubbles)
	}
	if bubbleTime != 9*time.Second {
		t.Fatalf("bubble time = %v, want 9s", bubbleTime)
	}
	if out.Total() != 10*time.Minute+9*time.Second {
		t.Fatalf("total = %v", out.Total())
	}
}

func TestNaturalQuiescenceResetsCountdown(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(
		trace.Segment{Duration: 2 * time.Minute, Kind: trace.Workload, Loads: []cpu.Load{cpu.ComputeLoad}},
		trace.Segment{Duration: 30 * time.Second, Kind: trace.Idle},
		trace.Segment{Duration: 2 * time.Minute, Kind: trace.Workload, Loads: []cpu.Load{cpu.ComputeLoad}},
	)
	out := InjectBubbles(tr, DefaultBubblePolicy())
	// Neither workload stretch reaches 180 s without a natural pause, so
	// no bubbles should be injected.
	if out.Total() != tr.Total() {
		t.Fatalf("bubbles injected despite natural quiescence: %v vs %v", out.Total(), tr.Total())
	}
}

func TestShortBlipDoesNotResetCountdown(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(
		trace.Segment{Duration: 100 * time.Second, Kind: trace.Workload, Loads: []cpu.Load{cpu.ComputeLoad}},
		trace.Segment{Duration: 100 * time.Millisecond, Kind: trace.Housekeeping},
		trace.Segment{Duration: 100 * time.Second, Kind: trace.Workload, Loads: []cpu.Load{cpu.ComputeLoad}},
	)
	out := InjectBubbles(tr, DefaultBubblePolicy())
	// 200 s of compute with only a 100 ms blip: one bubble at the 180 s
	// mark.
	if out.Total() != tr.Total()+3*time.Second {
		t.Fatalf("total = %v, want one bubble added", out.Total())
	}
}

func TestInjectBubblesDegeneratePolicy(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Segment{Duration: time.Minute, Kind: trace.Workload})
	out := InjectBubbles(tr, BubblePolicy{})
	if out.Total() != tr.Total() || len(out.Segments) != 1 {
		t.Fatal("degenerate policy modified trace")
	}
}

func TestBubblesEnableDetectionDuringLongJob(t *testing.T) {
	// End-to-end: an SEL strikes mid-workload; without bubbles ILD is
	// blind until the job ends, with bubbles it detects within the next
	// bubble.
	cfgm := machine.DefaultConfig()
	cfgm.SensorSeed = 21
	m := machine.New(cfgm)
	trainer := NewTrainer(DefaultConfig())
	rng := rand.New(rand.NewSource(22))
	m.RunTrace(trace.Quiescent(rng, 30*time.Second, 5*time.Second), func(tel machine.Telemetry) {
		trainer.Add(tel)
	})
	det, err := trainer.Fit()
	if err != nil {
		t.Fatal(err)
	}

	job := &trace.Trace{}
	job.Append(trace.Segment{
		Duration: 8 * time.Minute,
		Kind:     trace.Workload,
		Loads:    []cpu.Load{cpu.ComputeLoad, cpu.ComputeLoad, cpu.ComputeLoad},
	})
	withBubbles := InjectBubbles(job, DefaultBubblePolicy())

	m.InjectSEL(0.08)
	var detectedAt time.Duration = -1
	start := m.Now()
	m.RunTrace(withBubbles, func(tel machine.Telemetry) {
		if detectedAt < 0 && det.Observe(tel) {
			detectedAt = tel.T - start
		}
	})
	if detectedAt < 0 {
		t.Fatal("SEL during long job never detected despite bubbles")
	}
	// Must be caught at the end of a bubble — i.e. well before the 8 min
	// job finishes, within the paper's 3-minute detection window plus one
	// bubble length.
	if detectedAt > 3*time.Minute+6*time.Second {
		t.Fatalf("detected at %v, want within the 3-minute window", detectedAt)
	}
}
