package experiments

import "radshield/internal/resultcache"

// Campaign result caching: the seam between the campaigns and
// internal/resultcache.
//
// # Contract: cached ⊆ proven
//
// A cached result is replayed instead of recomputed, so caching is
// sound only for arms that are pure functions of their encoded inputs —
// exactly the determinism contract of DESIGN.md §9, machine-checked by
// radlint's armpurity analyzer. The rule, enforced by
// TestCachedArmSitesAreProven: every CachedArm and CachedArms call site
// must sit either inside a sched.Map job function or inside an exported
// *Campaign entry point — the two shapes armpurity proves transitively
// deterministic — so every value the store keeps is computed there.
// Code outside the proven set gets no caching seam; add the proof
// first.
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
// Results still land in internal/sched's per-trial slots, so campaign
// output is byte-identical warm or cold at any -workers width.
//
// A campaign whose arms are detectors observing one shared flight
// (Table 2's monitors, the threshold sweep's levels) keeps one key per
// detector but computes them together: its one sched.Map job calls
// CachedArms, which replays the hits and flies once for all the misses.
//
// # Encoding
//
// A result type's declaration is its payload encoding: CachedArm stores
// a result with resultcache's Enc.Value, and cacheArms decodes a hit in
// place with Dec.Value, so cached types keep exported fields. Keys
// encode a config struct whole the same way when every field shapes
// the result; encSELConfig and encDownlinkCampaignConfig pick fields.
// TestCacheWireFormat pins both. Changing a cached type's fields, or a
// struct a key encodes whole, changes the bytes and so the binary; the
// code fingerprint that starts every key moves every key with it, so
// the domain stays.

// armCache holds the per-trial keys and pre-decoded hits for one
// campaign. A cache built over a nil store never hits and never
// stores — campaigns run exactly as before.
type armCache[T any] struct {
	store *resultcache.Store
	keys  []resultcache.Key
	vals  []T
	hit   []bool
}

// cacheArms probes the store for all n arms of domain. encArm must
// write the canonical encoding of arm i's inputs. A hit decodes
// straight into its slot of vals; a decode failure (format drift, torn
// entry) zeroes the slot and counts as a miss — the arm recomputes and
// overwrites nothing (first write wins). A change to T's fields is a
// change to the binary, whose fingerprint already moved every key, so
// the domain stays.
func cacheArms[T any](store *resultcache.Store, domain string, n int,
	encArm func(int, *resultcache.Enc)) *armCache[T] {
	c := &armCache[T]{
		store: store,
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
		d.Value(&c.vals[i])
		if d.Close() != nil {
			var zero T
			c.vals[i] = zero
			continue
		}
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
	c.put(i, v)
	return v, nil
}

// CachedArms returns every arm for a campaign whose arms share one
// computation (one flight that every detector observes): the
// pre-decoded replays of the hits and, when any arm missed, compute's
// results for the misses, each stored for next time. compute runs at
// most once; miss[i] reports whether arm i missed, and compute returns
// a value for every arm, of which only the misses' are kept.
func (c *armCache[T]) CachedArms(compute func(miss []bool) ([]T, error)) ([]T, error) {
	if c.AllHit() {
		return c.vals, nil
	}
	miss := make([]bool, len(c.hit))
	for i, h := range c.hit {
		miss[i] = !h
	}
	vals, err := compute(miss)
	if err != nil {
		return nil, err
	}
	for i, h := range c.hit {
		if h {
			vals[i] = c.vals[i]
		} else {
			c.put(i, vals[i])
		}
	}
	return vals, nil
}

// put stores arm i's computed value v; a nil store keeps nothing.
func (c *armCache[T]) put(i int, v T) {
	if c.store == nil {
		return
	}
	var e resultcache.Enc
	e.Value(v)
	c.store.Put(c.keys[i], e.Bytes())
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
