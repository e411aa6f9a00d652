package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"radshield/internal/telemetry"
)

// Workers normalizes a requested pool width: values <= 0 mean "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Option configures a pool invocation.
type Option func(*options)

type options struct {
	reg *telemetry.Registry
}

// WithTelemetry attaches a metrics registry to the pool. A nil registry
// is a no-op, so callers may pass their config's registry unconditionally.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// TrialPanic is re-raised in the caller's goroutine when a trial
// panicked in a worker. It preserves the trial index, the original panic
// value, and the worker's stack at recovery time.
type TrialPanic struct {
	Trial int
	Value any
	Stack []byte
}

func (p *TrialPanic) String() string {
	return fmt.Sprintf("sched: trial %d panicked: %v\n%s", p.Trial, p.Value, p.Stack)
}

// failure is a worker's failed trial. A worker stops at its first
// failure, so it records at most one; trial is n while it has none.
type failure struct {
	trial int
	err   error
	pan   *TrialPanic
}

// Map runs fn(0..n-1) on up to `workers` goroutines and returns the
// results indexed by trial. The slice is identical to a serial
// `for i := 0; i < n; i++` loop regardless of worker count. On error the
// first failure in trial order is returned (and the remaining in-flight
// trials drain first); a panicking trial re-panics here as *TrialPanic.
//
// Workers claim trial indices in order from one counter and write each
// result straight into its slot. A failure moves the counter past the
// last trial, so no index is claimed after it, while every index
// already claimed still runs. Indices are claimed in order, so the
// lowest failing trial is always among those that ran.
func Map[T any](n, workers int, fn func(i int) (T, error), opts ...Option) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	o.reg.Gauge("sched_workers", "workers").Set(float64(w))
	trials := o.reg.Counter("sched_trials_total", "trials")

	var next atomic.Int64 // the lowest unclaimed trial
	var wg sync.WaitGroup
	fails := make([]failure, w)
	wg.Add(w)
	for k := range fails {
		f := &fails[k]
		go func() {
			defer wg.Done()
			f.trial = n
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				pan, err := try(fn, i, &out[i])
				trials.Inc()
				if err != nil || pan != nil {
					*f = failure{trial: i, err: err, pan: pan}
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()

	first := failure{trial: n}
	for _, f := range fails {
		if f.trial < first.trial {
			first = f
		}
	}
	if first.pan != nil {
		//radlint:allow nopanic re-raising a trial panic in the caller's goroutine; swallowing it would hide the crash
		panic(first.pan)
	}
	if first.err != nil {
		return nil, fmt.Errorf("trial %d: %w", first.trial, first.err)
	}
	return out, nil
}

// try runs trial i into its slot and catches a panic as a *TrialPanic
// carrying the worker's stack.
func try[T any](fn func(i int) (T, error), i int, slot *T) (pan *TrialPanic, err error) {
	defer func() {
		if r := recover(); r != nil {
			pan = &TrialPanic{Trial: i, Value: r, Stack: debug.Stack()}
		}
	}()
	*slot, err = fn(i)
	return nil, err
}
