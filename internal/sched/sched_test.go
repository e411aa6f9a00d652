package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"radshield/internal/telemetry"
)

func TestSchedMapOrderPreserved(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9, 100} {
		out, err := Map(100, w, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d", w, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestSchedWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
	// A pool with non-positive width still runs every trial.
	out, err := Map(5, -1, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 5 {
		t.Fatalf("Map with workers=-1: out=%v err=%v", out, err)
	}
}

func TestSchedZeroTrials(t *testing.T) {
	out, err := Map(0, 4, func(i int) (int, error) {
		t.Error("trial ran for n=0")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("len = %d, want 0", len(out))
	}
}

func TestSchedFirstErrorInTrialOrderWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	// Both trials 3 and 7 fail; regardless of which finishes first, the
	// collector must report trial 3's error.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(10, 4, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 7:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("err = %v, want trial 3's error", err)
		}
	}
}

func TestSchedErrorStopsDispatchAndDrains(t *testing.T) {
	const n = 1000
	var started, finished atomic.Int64
	boom := errors.New("boom")
	_, err := Map(n, 4, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Dispatch halts after the failure: nowhere near the full campaign
	// runs (a few in-flight trials may still complete).
	if s := started.Load(); s >= n {
		t.Errorf("started %d trials of %d after an early error", s, n)
	}
	// Drain guarantee: by the time Map returns, no trial is mid-flight.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("started %d != finished %d — trials leaked past return", s, f)
	}
}

func TestSchedPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated")
		}
		tp, ok := r.(*TrialPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *TrialPanic", r, r)
		}
		if tp.Trial != 5 || tp.Value != "kaboom" {
			t.Errorf("TrialPanic = trial %d value %v, want trial 5 value kaboom", tp.Trial, tp.Value)
		}
		if len(tp.Stack) == 0 {
			t.Error("TrialPanic carries no worker stack")
		}
	}()
	_, _ = Map(10, 3, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	t.Fatal("Map returned instead of panicking")
}

func TestSchedTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	out, err := Map(32, 4, func(i int) (int, error) { return i, nil }, WithTelemetry(reg))
	if err != nil || len(out) != 32 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("sched_trials_total"); got != 32 {
		t.Errorf("sched_trials_total = %d, want 32", got)
	}
	if got := snap.Gauge("sched_workers"); got != 4 {
		t.Errorf("sched_workers = %v, want 4", got)
	}
}

func TestSchedDeterministicAcrossWidths(t *testing.T) {
	run := func(workers int) string {
		out, err := Map(64, workers, func(i int) (string, error) {
			return fmt.Sprintf("trial-%03d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	serial := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		if got := run(w); got != serial {
			t.Errorf("workers=%d output diverged from serial", w)
		}
	}
}
