// Package emr implements Efficient Modular Redundancy, Radshield's SEU
// mitigation (paper §3.2): a runtime that executes every job three times
// across executors while guaranteeing that no single upset — in the CPU
// pipeline, the shared cache, or unprotected DRAM — can corrupt a
// majority of the redundant copies.
//
// The key ideas, all reproduced here:
//
//   - Reliability frontier. Inputs and outputs live on the last
//     ECC-protected level (storage always; DRAM when ECC DRAM is
//     fitted). Only data in flight beyond the frontier needs triple
//     execution.
//   - Conflicts and jobsets. Two jobs whose datasets overlap in memory
//     may be served the same (unprotected) cache line; EMR groups
//     non-conflicting jobs into jobsets and staggers redundant copies so
//     no two executors ever consume the same cached bytes, flushing each
//     job's lines when it completes.
//   - Common-data replication. Regions referenced by ≥ threshold of all
//     datasets (encryption keys, model weights, match images) are copied
//     into per-executor replicas, removing those conflicts without cache
//     clears.
//
// The runtime also implements the paper's baselines — sequential 3-MR and
// unprotected parallel 3-MR — as alternative schemes over the same
// machinery, so the Figure 11–14 comparisons are apples to apples. The
// single-execution schemes (none, and the §2.2 checksum guard) and each
// of sequential 3-MR's passes are one pass over the datasets on one
// executor.
//
// Time and energy are charged from the device's cost constants, not
// measured: the core clock (coreFreqHz), the storage, DRAM and
// allocation bandwidths (diskBytesPerSec, dramBytesPerSec,
// allocBytesPerSec), the cost of one flushed cache line
// (flushLineCost), and the power of a busy core (coreWatts) over the
// idle board's (IdleWatts, which Fig 14 also charges ILD's bubbles at).
//
// Key types: Runtime owns the simulated devices (frontier storage or
// ECC DRAM, plain DRAM, the shared Cache) and executes Specs; a Spec
// names Datasets (each a list of InputRefs into frontier memory) and a
// JobFunc; Run returns a Result whose Report carries the Table 6-style
// virtual-time breakdown, vote tallies, and energy. Hook/HookPoint is
// the fault-injection seam the Table 7 campaign uses to strike cache
// lines, executor outputs, job descriptors, and frontier words at
// precise phases. Config.Telemetry optionally attaches a
// telemetry.Registry; every Run then feeds the emr_* metrics documented
// in TELEMETRY.md.
//
// Lifetimes follow the rule of machine.RunTrace's samples and
// downlink.Link.RecvDown's frames: a JobFunc's inputs are valid only
// until the job returns, and a hook's *HookPoint, Regions included, only
// during the hook call. Each executor owns one set of visit buffers that
// the runtime refills for its next visit, so a job never returns a
// sub-slice of its inputs, and a hook copies out whatever it keeps.
// Outputs go the other way: each executor also owns an output buffer,
// and a job appends its output to the empty dst it is handed, whose
// capacity is that buffer's free tail (a job that returns bytes it owns
// instead is still correct). Each recorded output's capacity ends at
// its length, so neither a PhaseAfterJob hook's append nor the next job
// reaches another dataset's output, and a buffer is never rewound, so a
// Result's Outputs and PerDataset outputs stay valid and unchanged
// after later Runs and Resets of the runtime.
//
// A Run's bookkeeping is a few arrays, none of them a map. Planning
// (regions.go) sorts one key per dataset and distinct region it reads,
// so a region's uses form one run, and keeps in (addr, len) order the
// regions the threshold selects: all at 0, none above 1, otherwise
// those read by at least two datasets and at least threshold·n of the
// n. The replicas' bus addresses sit in one executor-major table, and
// each input's index into it (or -1 for an input read in place) in one
// array cut per dataset, so a visit resolves an input by index. The
// conflict regions and the greedy first-fit jobsets are each cut from
// one array. A runtime's first Run sizes every executor's visit
// scratch from the spec: headers with room for the most inputs any
// dataset has, and per input slot a buffer as long as the longest
// region that slot reads, all cut from one byte slab; a later spec
// that needs more grows them.
//
// Invariants: datasets in one jobset never share a cache line (the
// conflict graph is computed over replica-resolved regions); each
// executor's visit flushes the dataset's lines before the next redundant
// copy may touch them; votes are majority-of-three byte comparisons, so
// a single corrupted copy is always outvoted; all time is virtual (the
// cost constants), so reports are deterministic for a given seed and
// config.
package emr
