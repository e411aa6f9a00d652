// Package cache models the shared, unprotected CPU cache of a commodity
// SoC. Commodity compute pipelines and caches lack ECC (paper §2.2), so a
// single-event upset that lands in a cached line silently corrupts every
// subsequent read of that line — by any core — until the line is flushed.
//
// This is exactly the hazard EMR's conflict-aware scheduling removes: if
// two redundant executors read the same input bytes while they sit in the
// shared cache, one upset defeats both copies and the corruption outvotes
// the remaining correct executor... or at best ties it. The cache is
// therefore the centrepiece of the SEU experiments (paper Table 7).
//
// Cache is a set-associative read cache over a backing mem.Memory; all
// traffic moves in LineSize (64-byte) lines. Stats
// counts hits, misses, evictions, flushed lines, and the two
// fault-injection outcomes the experiments classify: FlipsInjected (an
// upset landed in a resident, unprotected line) and FlipsAbsorbed (the
// line was ECC-protected via SetECCProtected, so hardware corrected the
// strike — the ablate-cacheecc comparison).
//
// Invariants: stores go to the backing device, never through the cache,
// so a flush never loses data — it only discards the cache copy and
// whatever corruption resides there; FlipBit mutates only the cached
// copy, never the backing store, mirroring a cache-cell strike;
// FlushAll and FlushRange drop lines without writeback, which is EMR's
// "cache clear" discipline between redundant executions.
package cache
