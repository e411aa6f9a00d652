package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"radshield/internal/cpu"
)

func TestKindString(t *testing.T) {
	if Idle.String() != "idle" || Housekeeping.String() != "housekeeping" ||
		Workload.String() != "workload" || Kind(9).String() != "unknown" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestTotalAndAppend(t *testing.T) {
	tr := &Trace{}
	tr.Append(Segment{Duration: time.Second}, Segment{Duration: 2 * time.Second})
	if got := tr.Total(); got != 3*time.Second {
		t.Fatalf("Total = %v, want 3s", got)
	}
}

func TestQuiescentExactDurationAndKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Quiescent(rng, time.Minute, 5*time.Second)
	if got := tr.Total(); got != time.Minute {
		t.Fatalf("Total = %v, want 1m", got)
	}
	sawBlip := false
	for _, s := range tr.Segments {
		switch s.Kind {
		case Workload:
			t.Fatal("Quiescent trace contains Workload segment")
		case Housekeeping:
			sawBlip = true
			if len(s.Loads) == 0 || s.Loads[0].Util == 0 {
				t.Fatal("housekeeping blip has no activity")
			}
		}
	}
	if !sawBlip {
		t.Fatal("no housekeeping blips in a minute of quiescence")
	}
	if got := tr.QuiescentFraction(); got != 1 {
		t.Fatalf("QuiescentFraction = %v, want 1", got)
	}
}

func TestBurstIsAllWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Burst(rng, 10*time.Second, 4)
	if got := tr.Total(); got != 10*time.Second {
		t.Fatalf("Total = %v, want 10s", got)
	}
	for _, s := range tr.Segments {
		if s.Kind != Workload {
			t.Fatalf("burst contains %v segment", s.Kind)
		}
		if len(s.Loads) < 1 || len(s.Loads) > 4 {
			t.Fatalf("burst uses %d cores, want 1..4", len(s.Loads))
		}
	}
	if tr.QuiescentFraction() != 0 {
		t.Fatal("burst should have zero quiescent fraction")
	}
}

func TestFlightSoftwareShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	total := 2 * time.Hour
	tr := FlightSoftware(rng, total, 4)
	if got := tr.Total(); got != total {
		t.Fatalf("Total = %v, want %v", got, total)
	}
	qf := tr.QuiescentFraction()
	// Paper: spacecraft are quiescent the vast majority of the time; the
	// generator targets ≈80 %.
	if qf < 0.6 || qf > 0.95 {
		t.Fatalf("QuiescentFraction = %.2f, want within [0.6, 0.95]", qf)
	}
}

func TestNavigationMostlyBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Navigation(rng, 5*time.Minute, 4)
	if got := tr.Total(); got != 5*time.Minute {
		t.Fatalf("Total = %v", got)
	}
	if qf := tr.QuiescentFraction(); qf > 0.4 {
		t.Fatalf("navigation quiescent fraction = %.2f, want busy trace", qf)
	}
}

func TestMatMulStepsCoversGrid(t *testing.T) {
	tr := MatMulSteps(4, 600e6, 1.4e9, 100e6, time.Second)
	// 9 frequency steps × 5 core counts (0..4).
	if got := len(tr.Segments); got != 45 {
		t.Fatalf("segments = %d, want 45", got)
	}
	// First block is at min frequency, core counts ascending.
	if tr.Segments[0].FreqHz != 600e6 || len(tr.Segments[0].Loads) != 0 {
		t.Fatalf("first segment = %+v", tr.Segments[0])
	}
	if len(tr.Segments[4].Loads) != 4 {
		t.Fatalf("fifth segment cores = %d, want 4", len(tr.Segments[4].Loads))
	}
	last := tr.Segments[len(tr.Segments)-1]
	if last.FreqHz != 1.4e9 || len(last.Loads) != 4 {
		t.Fatalf("last segment = %+v", last)
	}
	for _, s := range tr.Segments {
		if len(s.Loads) > 0 && s.Loads[0] != cpu.ComputeLoad {
			t.Fatal("matmul segments must use ComputeLoad")
		}
	}
}

func TestClipExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, total := range []time.Duration{time.Second, 37 * time.Second, 11 * time.Minute} {
		tr := FlightSoftware(rng, total, 2)
		if got := tr.Total(); got != total {
			t.Fatalf("FlightSoftware(%v).Total() = %v", total, got)
		}
	}
}

// TestClipProperties checks in-place clip on random traces, zero-length
// segments and exact boundaries included: the result totals exactly
// the target, holds no zero-length segment, and keeps every segment
// before the cut as it was, in order, with only the last one shortened.
func TestClipProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		tr := &Trace{}
		for n := rng.Intn(8); n > 0; n-- {
			s := Segment{Duration: time.Duration(rng.Intn(4)) * time.Second, Kind: Kind(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				s.Loads = []cpu.Load{{Util: rng.Float64()}}
			}
			s.DiskReadPerSec = rng.Float64()
			tr.Append(s)
		}
		full := tr.Total()
		target := time.Duration(rng.Int63n(int64(full) + 1))
		if rng.Intn(4) == 0 {
			target = time.Duration(rng.Intn(int(full/time.Second)+1)) * time.Second // on a boundary
		}
		var kept []Segment // the non-empty input segments, in order
		for _, s := range tr.Segments {
			if s.Duration > 0 {
				kept = append(kept, s)
			}
		}

		got := clip(tr, target)
		if got.Total() != target {
			t.Fatalf("trial %d: clip to %v totals %v", trial, target, got.Total())
		}
		for i, s := range got.Segments {
			if s.Duration <= 0 {
				t.Fatalf("trial %d: segment %d has length %v", trial, i, s.Duration)
			}
			want := kept[i]
			if i == len(got.Segments)-1 {
				if s.Duration > want.Duration {
					t.Fatalf("trial %d: last segment grew from %v to %v", trial, want.Duration, s.Duration)
				}
				want.Duration = s.Duration
			}
			if !reflect.DeepEqual(s, want) {
				t.Fatalf("trial %d: segment %d = %+v, want %+v", trial, i, s, want)
			}
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a := FlightSoftware(rand.New(rand.NewSource(9)), time.Hour, 4)
	b := FlightSoftware(rand.New(rand.NewSource(9)), time.Hour, 4)
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if a.Segments[i].Duration != b.Segments[i].Duration || a.Segments[i].Kind != b.Segments[i].Kind {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestQuiescentFractionEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if got := tr.QuiescentFraction(); got != 0 {
		t.Fatalf("empty QuiescentFraction = %v", got)
	}
}
