package experiments

import (
	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/resultcache"
)

// Campaign result caching: the seam between the campaigns and
// internal/resultcache.
//
// # Contract: cached ⊆ proven
//
// A cached result is replayed instead of recomputed, so caching is
// sound only for arms that are pure functions of their encoded inputs —
// exactly the determinism contract of DESIGN.md §9, machine-checked by
// radlint's armpurity analyzer. The rule, enforced by
// TestCachedArmSitesAreProven: every CachedArm call site must sit
// either inside a sched.Map/sched.Stream job function or inside an
// exported *Campaign entry point — the two shapes armpurity proves
// transitively deterministic. Code outside the proven set gets no
// caching seam; add the proof first.
//
// # Shape
//
// A campaign builds an armCache up front with one key per trial
// (encArm canonically encodes everything the trial depends on: config
// fields, seed, trial identity — never Workers or Telemetry, which must
// not change results). Construction probes and fully decodes every hit
// serially, before the scheduler fans out, so:
//
//   - expensive campaign-wide setup (golden runs, detector training)
//     can be skipped when AllHit reports a fully warm cache;
//   - scheduler jobs call CachedArm, which replays the decoded value or
//     computes-and-stores, without ever touching the decoder again — a
//     corrupt entry is already a miss by the time jobs run.
//
// Results still stream back through internal/sched's order-preserving
// collector, so campaign output is byte-identical warm or cold at any
// -workers width.
type armCodec[T any] struct {
	enc func(*resultcache.Enc, T)
	dec func(*resultcache.Dec) T
}

// armCache holds the per-trial keys and pre-decoded hits for one
// campaign. A cache built over a nil store never hits and never
// stores — campaigns run exactly as before.
type armCache[T any] struct {
	store *resultcache.Store
	codec armCodec[T]
	keys  []resultcache.Key
	vals  []T
	hit   []bool
}

// cacheArms probes the store for all n arms of domain. encArm must
// write the canonical encoding of arm i's inputs; codec round-trips the
// result type. A decode failure (format drift, torn entry) counts as a
// miss — the arm recomputes and overwrites nothing (first write wins,
// but its key changed with the format version anyway; bump the domain
// suffix on any codec change).
func cacheArms[T any](store *resultcache.Store, domain string, n int,
	encArm func(int, *resultcache.Enc), codec armCodec[T]) *armCache[T] {
	c := &armCache[T]{
		store: store,
		codec: codec,
		keys:  make([]resultcache.Key, n),
		vals:  make([]T, n),
		hit:   make([]bool, n),
	}
	if store == nil {
		return c
	}
	for i := 0; i < n; i++ {
		var e resultcache.Enc
		encArm(i, &e)
		c.keys[i] = store.Key(domain, &e)
		payload, ok := store.Get(c.keys[i])
		if !ok {
			continue
		}
		d := resultcache.NewDec(payload)
		v := codec.dec(d)
		if d.Close() != nil {
			continue
		}
		c.vals[i] = v
		c.hit[i] = true
	}
	return c
}

// AllHit reports whether every arm was replayed from the store —
// campaigns use it to skip setup work (golden runs, ILD training) that
// only computing arms need.
func (c *armCache[T]) AllHit() bool {
	for _, h := range c.hit {
		if !h {
			return false
		}
	}
	return true
}

// CachedArm returns arm i: the pre-decoded replay on a hit, else
// compute's result, stored for next time. Safe for concurrent calls
// from scheduler workers — hits only read, and Store.Put serializes
// appends internally.
func (c *armCache[T]) CachedArm(i int, compute func() (T, error)) (T, error) {
	if c.hit[i] {
		return c.vals[i], nil
	}
	v, err := compute()
	if err != nil {
		var zero T
		return zero, err
	}
	if c.store != nil {
		var e resultcache.Enc
		c.codec.enc(&e, v)
		c.store.Put(c.keys[i], e.Bytes())
	}
	return v, nil
}

// encSELConfig canonically encodes the SEL campaign parameters that
// results depend on. Workers, Telemetry and Cache are deliberately
// absent: they must never change results (that is the scheduler's
// byte-identical-at-any-width contract).
func encSELConfig(e *resultcache.Enc, c SELConfig) {
	e.Duration(c.Duration)
	e.Duration(c.SampleEvery)
	e.Duration(c.TrainFor)
	e.Duration(c.SELEvery)
	e.Float(c.SELAmps)
	e.Duration(c.Window)
	e.Int(c.Seed)
}

// encSupervisorConfig canonically encodes the guard ladder tuning.
func encSupervisorConfig(e *resultcache.Enc, sc guard.SupervisorConfig) {
	e.Float(sc.Health.MinPlausibleA)
	e.Float(sc.Health.MaxPlausibleA)
	e.Int(int64(sc.Health.StuckAfter))
	e.Duration(sc.Health.MaxSampleGap)
	e.Int(int64(sc.BadAfter))
	e.Int(int64(sc.GoodAfter))
	e.Duration(sc.RefireWindow)
	e.Int(int64(sc.RefireLimit))
	e.Duration(sc.BlindCycleEvery)
	e.Float(sc.StaticLevelA)
	e.Int(int64(sc.HangAfter))
	e.Duration(sc.HeartbeatTimeout)
}

// encWatchdogConfig canonically encodes the EMR watchdog tuning.
func encWatchdogConfig(e *resultcache.Enc, wc guard.WatchdogConfig) {
	e.Duration(wc.Deadline)
	e.Int(int64(wc.MaxStrikes))
	e.Int(int64(wc.RetryLimit))
	e.Duration(wc.BackoffBase)
}

// encEnvironment canonically encodes a radiation environment for key
// derivation. Every field participates: changing any rate is a new arm.
func encEnvironment(e *resultcache.Enc, env fault.Environment) {
	e.Str(env.Name)
	e.Float(env.SEUPerDay)
	e.Float(env.MBUFrac)
	e.Float(env.SELPerYear)
	e.Float(env.SELAmpsMin)
	e.Float(env.SELAmpsMax)
}
