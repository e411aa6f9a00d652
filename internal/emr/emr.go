package emr

import (
	"fmt"
	"time"

	"radshield/internal/cache"
	"radshield/internal/fault"
	"radshield/internal/mem"
	"radshield/internal/telemetry"
)

// Frontier selects where the reliability frontier sits (paper Figure 3).
type Frontier int

const (
	// FrontierDRAM: the device has ECC DRAM; inputs/outputs live in DRAM.
	FrontierDRAM Frontier = iota
	// FrontierStorage: DRAM is unprotected (e.g. Snapdragon 801); only
	// flash storage can be trusted, and the page cache must be treated as
	// vulnerable.
	FrontierStorage
)

// String names the frontier placement.
func (f Frontier) String() string {
	switch f {
	case FrontierDRAM:
		return "dram"
	case FrontierStorage:
		return "storage"
	default:
		return "unknown"
	}
}

// The device's cost model. The simulation executes real computation
// over simulated memory but charges time analytically from these
// coefficients, so results are deterministic and hardware-independent.
// They are calibrated to a flight-class embedded board: a 1.4 GHz core,
// UFS-class storage, LPDDR4-class DRAM.
const (
	coreFreqHz       = 1.4e9                // executor core frequency
	diskBytesPerSec  = 400e6                // storage streaming bandwidth
	dramBytesPerSec  = 3.2e9                // DRAM fetch bandwidth
	allocBytesPerSec = 6.4e9                // allocator + memset bandwidth
	flushLineCost    = 40 * time.Nanosecond // per cache-line flush cost
	coreWatts        = 3.4                  // one busy executor core

	// IdleWatts is the board's baseline power, 1.55 A × 5 V.
	IdleWatts = 7.75
)

// Config describes the device and scheme a Runtime executes under.
type Config struct {
	Scheme   fault.Scheme
	Frontier Frontier
	// DRAMECC: whether the working DRAM has SECDED. Required true when
	// Frontier is FrontierDRAM (the frontier must be protected).
	DRAMECC     bool
	DRAMSize    uint64
	StorageSize uint64
	CacheSets   int
	CacheWays   int
	Executors   int // redundant copies; the paper uses 3
	// CacheECC marks the shared cache as SECDED-protected. Per the paper
	// §3.2, when cache ECC exists EMR "simply reverts to 3-MR": shared
	// cached data no longer needs replication or flush discipline, so the
	// EMR scheme executes as plain parallel 3-MR while remaining fully
	// protected (single-bit cache upsets are absorbed in hardware).
	CacheECC bool
	// ReplicationThreshold is the fraction of datasets that must share an
	// identical region before it is replicated per-executor (paper
	// default 0.01). Values > 1 disable replication; 0 replicates any
	// region shared by at least two datasets.
	ReplicationThreshold float64
	// Watch, when non-nil, observes every executor visit's virtual
	// elapsed time and error, and may kill or re-bill the visit — the
	// guard watchdog's attachment point (see internal/guard). Watchers
	// run in (jobset, round, executor) order on the runtime's one
	// goroutine.
	Watch Watcher
	// Telemetry, when non-nil, receives the runtime's vote/flush/fetch
	// counters, the per-run makespan histogram, and vote-mismatch /
	// checksum-miss events (see TELEMETRY.md). Nil disables
	// instrumentation; the hot path then costs one nil check per
	// accounting step.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns a 3-executor EMR configuration with an ECC-DRAM
// frontier and a 512 KiB shared cache.
func DefaultConfig() Config {
	return Config{
		Scheme:               fault.SchemeEMR,
		Frontier:             FrontierDRAM,
		DRAMECC:              true,
		DRAMSize:             64 << 20,
		StorageSize:          64 << 20,
		CacheSets:            512,
		CacheWays:            16,
		Executors:            3,
		ReplicationThreshold: 0.01,
	}
}

// Runtime owns the simulated device (frontier memory, working DRAM,
// shared cache) and executes Specs under the configured scheme.
type Runtime struct {
	cfg         Config
	bus         *mem.Bus
	storage     *mem.DRAM
	dram        *mem.DRAM
	storageBase uint64
	dramBase    uint64
	cache       *cache.Cache

	inputBytes uint64 // bytes staged through LoadInput
	diskLoaded uint64 // bytes pulled from disk during staging

	ins     *instruments
	scratch []visitScratch // one per executor; see visit
}

// New validates the config and builds a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Executors < 1 {
		return nil, fmt.Errorf("emr: Executors = %d, want ≥ 1", cfg.Executors)
	}
	if cfg.Scheme != fault.SchemeNone && cfg.Scheme != fault.SchemeChecksum && cfg.Executors < 2 {
		// Two executors is DMR: disagreement is detected (no silent
		// corruption) but not correctable by vote — the guard layer's
		// degraded mode, which pairs it with a checksum arbiter. Full
		// correction needs three.
		return nil, fmt.Errorf("emr: scheme %v needs ≥ 2 executors, have %d", cfg.Scheme, cfg.Executors)
	}
	if cfg.Frontier == FrontierDRAM && !cfg.DRAMECC {
		return nil, fmt.Errorf("emr: DRAM frontier requires ECC DRAM; set Frontier to storage instead")
	}
	if cfg.DRAMSize == 0 || cfg.StorageSize == 0 {
		return nil, fmt.Errorf("emr: DRAMSize and StorageSize must be nonzero")
	}
	if cfg.CacheSets <= 0 || cfg.CacheWays <= 0 {
		return nil, fmt.Errorf("emr: invalid cache geometry %d×%d", cfg.CacheSets, cfg.CacheWays)
	}
	if !(cfg.ReplicationThreshold >= 0) {
		return nil, fmt.Errorf("emr: replication threshold %v, want ≥ 0", cfg.ReplicationThreshold)
	}

	return build(cfg), nil
}

// build constructs a runtime for a validated config: empty storage and
// DRAM mapped behind one bus, a cold shared cache, instruments on the
// config's registry, and one visit scratch per executor. Memory is
// backed only as it is written, so a build costs the cache array, not
// the devices' nominal sizes.
func build(cfg Config) *Runtime {
	rt := &Runtime{
		cfg:     cfg,
		bus:     mem.NewBus(),
		storage: mem.NewStorage(cfg.StorageSize),
		dram:    mem.NewDRAM(cfg.DRAMSize, cfg.DRAMECC),
		ins:     newEMRInstruments(cfg.Telemetry),
		scratch: make([]visitScratch, cfg.Executors),
	}
	rt.storageBase = rt.bus.Map(rt.storage)
	rt.dramBase = rt.bus.Map(rt.dram)
	rt.cache = cache.New(rt.bus, cfg.CacheSets, cfg.CacheWays)
	rt.cache.SetECCProtected(cfg.CacheECC)
	return rt
}

// Reset replaces the runtime with one built exactly as New builds it
// for the same config, so it is fresh-equivalent: memory contents,
// allocators, cache lines and device statistics start over, and the
// instruments reattach to the same registry counters. Inputs, journals
// and Specs made before a Reset belong to the old device and must not
// be reused.
func (r *Runtime) Reset() { *r = *build(r.cfg) }

// Cache exposes the shared cache for fault-injection campaigns.
func (r *Runtime) Cache() *cache.Cache { return r.cache }

// FlipFrontierBit injects a bit flip into frontier memory at a
// bus-relative address (fault campaigns use region addresses from
// InputRefs, which are bus addresses).
func (r *Runtime) FlipFrontierBit(addr uint64, bit uint) error {
	return r.bus.FlipBit(addr, bit)
}

// frontierAlloc reserves n bytes on the frontier device and returns the
// bus address.
func (r *Runtime) frontierAlloc(n uint64) (uint64, error) {
	switch r.cfg.Frontier {
	case FrontierStorage:
		a, err := r.storage.Alloc(n)
		return r.storageBase + a, err
	default:
		a, err := r.dram.Alloc(n)
		return r.dramBase + a, err
	}
}

// workAlloc reserves n bytes of working DRAM (replicas, scratch outputs)
// and returns the bus address.
func (r *Runtime) workAlloc(n uint64) (uint64, error) {
	a, err := r.dram.Alloc(n)
	return r.dramBase + a, err
}

// LoadInput stages data onto the reliability frontier (the paper's
// "input data ... stored within the reliability frontier") and returns a
// reference covering it. Loading is charged as one streaming disk read —
// input data originates from the spacecraft's storage regardless of
// where the frontier sits.
func (r *Runtime) LoadInput(name string, data []byte) (InputRef, error) {
	if len(data) == 0 {
		return InputRef{}, fmt.Errorf("emr: LoadInput(%q): empty input", name)
	}
	addr, err := r.frontierAlloc(uint64(len(data)))
	if err != nil {
		return InputRef{}, fmt.Errorf("emr: LoadInput(%q): %w", name, err)
	}
	if err := r.bus.Write(addr, data); err != nil {
		return InputRef{}, fmt.Errorf("emr: LoadInput(%q): %w", name, err)
	}
	r.inputBytes += uint64(len(data))
	r.diskLoaded += uint64(len(data))
	return InputRef{Name: name, Region: mem.Region{Addr: addr, Len: uint64(len(data))}}, nil
}
