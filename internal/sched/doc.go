// Package sched is the experiment harness's deterministic parallel
// campaign scheduler: a bounded, order-preserving worker pool that fans
// independently-seeded trials across CPUs while keeping campaign output
// byte-identical to a serial run.
//
// Every evaluation campaign in internal/experiments is embarrassingly
// parallel — each trial (a mission, an injection run, a sweep level, a
// detector under test) draws from its own seeded *rand.Rand and shares
// only read-only inputs (golden outputs, trained models, recorded
// telemetry streams). Map exploits that: trials execute concurrently on
// up to `workers` goroutines, and each writes its result into its own
// slot of the returned slice, so accumulation, table rendering, and
// error selection cannot observe scheduling jitter. The
// golden-equivalence tests in internal/experiments diff parallel output
// against workers=1 byte for byte.
//
// Semantics:
//
//   - workers <= 0 normalizes to runtime.GOMAXPROCS(0); workers > n is
//     clamped to n.
//   - The first error in trial order wins. Workers claim trials in
//     index order and stop claiming once any trial fails, but trials
//     already claimed run to the end before Map returns, so no goroutine
//     outlives the call.
//   - A panicking trial is drained the same way, then the panic is
//     re-raised in the caller's goroutine as a *TrialPanic carrying the
//     trial index, original value, and worker stack.
//
// The scheduler holds no locks around trials, and a call allocates a
// fixed handful of objects whatever its trial count (TestAllocsSchedMap);
// what made parallel campaigns slow was allocation inside the trials
// (GC pressure is shared even when no data is), which is why the
// per-trial hot paths in machine, power, and ild are pinned by
// allocation-regression tests — see PERFORMANCE.md for the measured
// account.
//
// With WithTelemetry the pool reports sched_trials_total (trials that
// ran) and sched_workers (width of the most recent pool) — see
// TELEMETRY.md.
package sched
