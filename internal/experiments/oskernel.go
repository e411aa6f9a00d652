package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/guard"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/trace"
)

// OS-fault campaign: the cross-layer characterization rig for kernel
// failures under Radshield. "Where Linux Breaks Under Radiation"
// (PAPERS.md) finds proton-induced *kernel* failures — panics, hangs,
// IO error storms — dominate on COTS SoCs; this campaign flies each
// class against a guarded arm (hardware watchdog fitted, supervisor
// hang/heartbeat detection on, recorder pages verified) and a bare arm
// (no watchdog, ILD alone, pages trusted blindly), paired on seeds, and
// measures detection latency, recovery time, events lost, and missed
// SELs per class.

// OSFaultCampaignConfig parameterizes the OS-fault sweep.
type OSFaultCampaignConfig struct {
	// SEL supplies the shared campaign parameters: mission Duration,
	// telemetry cadence, latchup period/magnitude, detection Window,
	// Seed, Workers, Telemetry, Cache.
	SEL SELConfig
	// Classes × Onsets is the sweep grid; each (class, onset) pair is
	// one paired trial.
	Classes []machine.OSFaultKind
	// Onsets are the mission times the fault strikes at; FaultDuration
	// bounds the window classes (ioburst, fscorrupt, schedstall). Panics
	// and hangs hold until a power cycle regardless.
	Onsets        []time.Duration
	FaultDuration time.Duration
	// WatchdogTimeout is the guarded arm's hardware watchdog; the bare
	// arm flies without one (the pre-Trikarenos COTS baseline).
	WatchdogTimeout time.Duration
	// IOErrorRate is the per-call failure probability during the
	// io_error_burst window.
	IOErrorRate float64
	// SnapshotEvery is the recorder's NVRAM page cadence —
	// the bounded-loss window a reboot rolls back to. HousekeepEvery is
	// the telemetry-record enqueue cadence; RecorderCap sizes the ring.
	SnapshotEvery  time.Duration
	HousekeepEvery time.Duration
	RecorderCap    int
	// Supervisor tunes the guarded arm's ladder; the campaign expects
	// HangAfter and HeartbeatTimeout enabled.
	Supervisor guard.SupervisorConfig
	// Watchdog, Stall and StallExecutor drive the scheduler_stall
	// class's EMR stage: the guarded runtime attaches the watchdog and
	// kills the starved executor's visits; the bare runtime just waits.
	Watchdog      guard.WatchdogConfig
	Stall         time.Duration
	StallExecutor int
}

// DefaultOSFaultCampaignConfig sweeps all five OS fault classes at two
// onsets — mid-mission and just past the second latchup — with a
// 30-second hardware watchdog on the guarded arm and supervisor
// hang/heartbeat detection enabled.
func DefaultOSFaultCampaignConfig() OSFaultCampaignConfig {
	sel := DefaultSELConfig()
	sel.Duration = 30 * time.Minute
	sel.SELEvery = 8 * time.Minute
	sup := guard.DefaultSupervisorConfig()
	sup.RefireWindow = 10 * time.Minute // covers the 3-minute bubble cadence
	sup.HangAfter = 50                  // half a second of wedged samples
	sup.HeartbeatTimeout = time.Second
	wd := guard.DefaultWatchdogConfig()
	wd.Deadline = 10 * time.Millisecond
	return OSFaultCampaignConfig{
		SEL: sel,
		Classes: []machine.OSFaultKind{
			machine.OSFaultKernelPanic,
			machine.OSFaultKernelHang,
			machine.OSFaultIOErrorBurst,
			machine.OSFaultSchedulerStall,
			machine.OSFaultFSCorruption,
		},
		Onsets:          []time.Duration{10 * time.Minute, 13 * time.Minute},
		FaultDuration:   7 * time.Minute, // spans the 16-minute SEL reboot
		WatchdogTimeout: 30 * time.Second,
		IOErrorRate:     0.9,
		SnapshotEvery:   30 * time.Second,
		HousekeepEvery:  10 * time.Second,
		RecorderCap:     256,
		Supervisor:      sup,
		Watchdog:        wd,
		Stall:           time.Second,
		StallExecutor:   1,
	}
}

// ParseOSFaultClasses resolves a comma-separated list of fault-class
// ids ("panic,hang,ioburst,schedstall,fscorrupt") to kinds; an empty
// string selects the default full grid.
func ParseOSFaultClasses(s string) ([]machine.OSFaultKind, error) {
	if s == "" {
		return DefaultOSFaultCampaignConfig().Classes, nil
	}
	var out []machine.OSFaultKind
	for _, part := range strings.Split(s, ",") {
		k, err := machine.ParseOSFaultKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// OSFaultTrial is one paired sweep point: the same mission flown with
// the full protection stack (guarded arm) and without it (bare arm),
// sharing seeds so the comparison is paired.
type OSFaultTrial struct {
	Class machine.OSFaultKind
	// Onset is the grid point's fault strike time.
	Onset time.Duration

	// DetectLatency is fault onset to the guarded arm's first OS-level
	// detection signal (heartbeat gap, hang cycle, rejected page, IO
	// error); RecoveryTime is onset to the first healthy sample after
	// the fault cleared. -1: never.
	DetectLatency time.Duration
	RecoveryTime  time.Duration

	WatchdogResets int // hardware watchdog firings (guarded arm)
	HangCycles     int // supervisor-commanded cycles for a wedged kernel
	IOErrors       int // injected IO failures seen (guarded arm)
	Recoveries     int // corrupt NVRAM pages detected and degraded

	EventsEnqueued, UnguardedEnqueued int
	EventsLost, UnguardedLost         int
	MissedSELs, UnguardedMissedSELs   int
	PowerCycles, UnguardedCycles      int
	// CleanReplay certifies the recorder invariant held all mission: a
	// failed restore left the recorder verifiably empty, a successful
	// one reproduced the page byte-for-byte — never wrong replay.
	CleanReplay, UnguardedCleanReplay bool
	Survived, UnguardedSurvived       bool

	// scheduler_stall EMR stage: the guarded runtime's watchdog kills
	// and degraded-retry verdicts, and the bare runtime's makespan
	// overrun from just waiting out the stalls.
	Kills          int
	TMRGolden      bool
	DegradedGolden bool
	StallOverrun   time.Duration
}

func encOSFaultTrial(e *resultcache.Enc, t OSFaultTrial) {
	e.Int(int64(t.Class))
	e.Duration(t.Onset)
	e.Duration(t.DetectLatency)
	e.Duration(t.RecoveryTime)
	e.Int(int64(t.WatchdogResets))
	e.Int(int64(t.HangCycles))
	e.Int(int64(t.IOErrors))
	e.Int(int64(t.Recoveries))
	e.Int(int64(t.EventsEnqueued))
	e.Int(int64(t.UnguardedEnqueued))
	e.Int(int64(t.EventsLost))
	e.Int(int64(t.UnguardedLost))
	e.Int(int64(t.MissedSELs))
	e.Int(int64(t.UnguardedMissedSELs))
	e.Int(int64(t.PowerCycles))
	e.Int(int64(t.UnguardedCycles))
	e.Bool(t.CleanReplay)
	e.Bool(t.UnguardedCleanReplay)
	e.Bool(t.Survived)
	e.Bool(t.UnguardedSurvived)
	e.Int(int64(t.Kills))
	e.Bool(t.TMRGolden)
	e.Bool(t.DegradedGolden)
	e.Duration(t.StallOverrun)
}

func decOSFaultTrial(d *resultcache.Dec) OSFaultTrial {
	return OSFaultTrial{
		Class:                machine.OSFaultKind(d.Int()),
		Onset:                d.Duration(),
		DetectLatency:        d.Duration(),
		RecoveryTime:         d.Duration(),
		WatchdogResets:       int(d.Int()),
		HangCycles:           int(d.Int()),
		IOErrors:             int(d.Int()),
		Recoveries:           int(d.Int()),
		EventsEnqueued:       int(d.Int()),
		UnguardedEnqueued:    int(d.Int()),
		EventsLost:           int(d.Int()),
		UnguardedLost:        int(d.Int()),
		MissedSELs:           int(d.Int()),
		UnguardedMissedSELs:  int(d.Int()),
		PowerCycles:          int(d.Int()),
		UnguardedCycles:      int(d.Int()),
		CleanReplay:          d.Bool(),
		UnguardedCleanReplay: d.Bool(),
		Survived:             d.Bool(),
		UnguardedSurvived:    d.Bool(),
		Kills:                int(d.Int()),
		TMRGolden:            d.Bool(),
		DegradedGolden:       d.Bool(),
		StallOverrun:         d.Duration(),
	}
}

// osArmResult is one arm's raw tallies.
type osArmResult struct {
	detectAt    time.Duration // absolute mission time, -1 never
	recoveredAt time.Duration
	recoveries  int
	enqueued    int
	lost        int
	missedSELs  int
	powerCycles int
	wdResets    int
	hangCycles  int
	ioErrors    int
	cleanReplay bool
	survived    bool
}

// OSFaultCampaign sweeps the OS fault classes against the protection
// stack and renders the comparison table. Trials fan out across the
// campaign scheduler; output is byte-identical at any worker width.
func OSFaultCampaign(c OSFaultCampaignConfig) ([]OSFaultTrial, *Table, error) {
	if len(c.Classes) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty OS-fault class grid")
	}
	for _, k := range c.Classes {
		switch k {
		case machine.OSFaultKernelPanic, machine.OSFaultKernelHang,
			machine.OSFaultIOErrorBurst, machine.OSFaultSchedulerStall,
			machine.OSFaultFSCorruption:
		default:
			return nil, nil, fmt.Errorf("experiments: invalid OS fault class %d", int(k))
		}
	}
	if len(c.Onsets) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty OS-fault onset grid")
	}
	for _, onset := range c.Onsets {
		if onset <= 0 {
			return nil, nil, fmt.Errorf("experiments: onset %v must be positive", onset)
		}
	}
	if c.FaultDuration <= 0 {
		return nil, nil, fmt.Errorf("experiments: FaultDuration must be positive")
	}
	if c.WatchdogTimeout <= 0 {
		return nil, nil, fmt.Errorf("experiments: WatchdogTimeout must be positive (the guarded arm's whole point)")
	}
	if !(c.IOErrorRate > 0 && c.IOErrorRate <= 1) {
		return nil, nil, fmt.Errorf("experiments: IOErrorRate %v must be in (0, 1]", c.IOErrorRate)
	}
	if c.SnapshotEvery <= 0 || c.HousekeepEvery <= 0 || c.RecorderCap < 1 {
		return nil, nil, fmt.Errorf("experiments: SnapshotEvery, HousekeepEvery and RecorderCap must be positive")
	}
	if c.Stall <= c.Watchdog.Deadline {
		return nil, nil, fmt.Errorf("experiments: Stall %v must exceed the watchdog deadline %v", c.Stall, c.Watchdog.Deadline)
	}
	if c.StallExecutor < 0 || c.StallExecutor >= emr.DefaultConfig().Executors {
		return nil, nil, fmt.Errorf("experiments: StallExecutor %d out of range", c.StallExecutor)
	}

	// The grid is classes × onsets, onset-major within a class; the
	// trial index participates in the key (the trial seed derives from
	// it), so reordering either axis recomputes — by design.
	grid := len(c.Classes) * len(c.Onsets)
	gridPoint := func(i int) (machine.OSFaultKind, time.Duration) {
		return c.Classes[i/len(c.Onsets)], c.Onsets[i%len(c.Onsets)]
	}
	cache := cacheArms(c.SEL.Cache, "oskernel/v2", grid,
		func(i int, e *resultcache.Enc) {
			class, onset := gridPoint(i)
			encSELConfig(e, c.SEL)
			e.Int(int64(class))
			e.Duration(onset)
			e.Duration(c.FaultDuration)
			e.Duration(c.WatchdogTimeout)
			e.Float(c.IOErrorRate)
			e.Duration(c.SnapshotEvery)
			e.Duration(c.HousekeepEvery)
			e.Int(int64(c.RecorderCap))
			encSupervisorConfig(e, c.Supervisor)
			encWatchdogConfig(e, c.Watchdog)
			e.Duration(c.Stall)
			e.Int(int64(c.StallExecutor))
			e.Int(int64(i))
		},
		armCodec[OSFaultTrial]{enc: encOSFaultTrial, dec: decOSFaultTrial})

	var model *linmodel.Model
	if !cache.AllHit() {
		base, err := TrainILD(c.SEL)
		if err != nil {
			return nil, nil, err
		}
		model = base.Model()
	}

	trials, err := sched.Map(grid, c.SEL.Workers, func(i int) (OSFaultTrial, error) {
		return cache.CachedArm(i, func() (OSFaultTrial, error) {
			class, onset := gridPoint(i)
			seed := c.SEL.Seed + 5000 + int64(i)*31
			_, flight := c.SEL.pairTrace(rand.New(rand.NewSource(seed+3)), c.SEL.Duration, 3*time.Minute)
			g, err := flyOSFaultArm(c, class, onset, model, flight, seed, true)
			if err != nil {
				return OSFaultTrial{}, err
			}
			u, err := flyOSFaultArm(c, class, onset, model, flight, seed, false)
			if err != nil {
				return OSFaultTrial{}, err
			}
			tr := OSFaultTrial{
				Class:          class,
				Onset:          onset,
				DetectLatency:  latencyFrom(g.detectAt, onset),
				RecoveryTime:   latencyFrom(g.recoveredAt, onset),
				WatchdogResets: g.wdResets, HangCycles: g.hangCycles,
				IOErrors: g.ioErrors, Recoveries: g.recoveries,
				EventsEnqueued: g.enqueued, UnguardedEnqueued: u.enqueued,
				EventsLost: g.lost, UnguardedLost: u.lost,
				MissedSELs: g.missedSELs, UnguardedMissedSELs: u.missedSELs,
				PowerCycles: g.powerCycles, UnguardedCycles: u.powerCycles,
				CleanReplay: g.cleanReplay, UnguardedCleanReplay: u.cleanReplay,
				Survived: g.survived, UnguardedSurvived: u.survived,
			}
			if class == machine.OSFaultSchedulerStall {
				if err := stallEMRStage(c, seed, &tr); err != nil {
					return OSFaultTrial{}, err
				}
			}
			return tr, nil
		})
	}, sched.WithTelemetry(c.SEL.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("OS-fault campaign: %v missions, %d onsets, watchdog %v (guarded arm only)",
			c.SEL.Duration, len(c.Onsets), c.WatchdogTimeout),
		Header: []string{"Class", "Onset", "Detect", "Recover", "WdReset", "HangCyc", "IOErr", "PageRecov",
			"Lost g/u", "MissedSEL g/u", "Cycles g/u", "CleanReplay g/u", "Survived g/u", "EMR stage"},
	}
	for _, tr := range trials {
		emrCol := "-"
		if tr.Class == machine.OSFaultSchedulerStall {
			emrCol = fmt.Sprintf("kills=%d tmr=%s degraded=%s bare-overrun=%v",
				tr.Kills, verdict(tr.TMRGolden), verdict(tr.DegradedGolden), tr.StallOverrun)
		}
		tbl.AddRow(tr.Class.String(), tr.Onset.String(), latencyStr(tr.DetectLatency), latencyStr(tr.RecoveryTime),
			fmt.Sprint(tr.WatchdogResets), fmt.Sprint(tr.HangCycles), fmt.Sprint(tr.IOErrors),
			fmt.Sprint(tr.Recoveries),
			fmt.Sprintf("%d/%d", tr.EventsLost, tr.UnguardedLost),
			fmt.Sprintf("%d/%d", tr.MissedSELs, tr.UnguardedMissedSELs),
			fmt.Sprintf("%d/%d", tr.PowerCycles, tr.UnguardedCycles),
			fmt.Sprintf("%v/%v", tr.CleanReplay, tr.UnguardedCleanReplay),
			fmt.Sprintf("%v/%v", tr.Survived, tr.UnguardedSurvived),
			emrCol)
	}
	return trials, tbl, nil
}

// latencyFrom converts an absolute detection time to a latency from
// onset, preserving the -1 "never" sentinel.
func latencyFrom(at, onset time.Duration) time.Duration {
	if at < 0 {
		return -1
	}
	return at - onset
}

func latencyStr(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return d.Round(10 * time.Millisecond).String()
}

// flyOSFaultArm flies one mission arm over the pair's flight trace:
// latchups on the campaign period, the scheduled OS fault, and the
// flight recorder persisting NVRAM pages every SnapshotEvery. The
// guarded arm has the hardware watchdog fitted, routes samples through
// the supervisor (hang + heartbeat detection on), verifies every page
// before trusting it, and repairs a corrupt page at boot. The bare arm
// flies the paper's baseline: no watchdog, a lone ILD detector, pages
// written and restored blindly.
func flyOSFaultArm(c OSFaultCampaignConfig, class machine.OSFaultKind, onset time.Duration, model *linmodel.Model, flight *trace.Trace, seed int64, guarded bool) (osArmResult, error) {
	res := osArmResult{detectAt: -1, recoveredAt: -1, cleanReplay: true}
	mc := c.SEL.machineConfig(seed)
	mc.Telemetry = nil // trials run in parallel; per-trial metrics stay local
	if guarded {
		mc.WatchdogTimeout = c.WatchdogTimeout
	}
	m := machine.New(mc)
	f := machine.OSFault{Kind: class, Start: onset}
	switch class {
	case machine.OSFaultIOErrorBurst:
		f.Duration, f.ErrorRate = c.FaultDuration, c.IOErrorRate
	case machine.OSFaultFSCorruption:
		f.Duration = c.FaultDuration
	case machine.OSFaultSchedulerStall:
		f.Duration, f.Executor = c.FaultDuration, c.StallExecutor
	}
	if err := m.ScheduleOSFault(f); err != nil {
		return res, err
	}
	prot, err := newProtection(m, model, c.SEL.ildConfig(), c.Supervisor, guarded)
	if err != nil {
		return res, err
	}

	rec, err := downlink.NewRecorder(c.RecorderCap)
	if err != nil {
		return res, err
	}
	// scratch is the guarded arm's write-verify target: a page is only
	// trusted after it round-trips through the real decoder.
	scratch, err := downlink.NewRecorder(c.RecorderCap)
	if err != nil {
		return res, err
	}
	corrupter := rand.New(rand.NewSource(seed + 17))
	page := rec.Snapshot() // the factory NVRAM image: a valid empty page

	detect := func(t time.Duration) {
		if guarded && res.detectAt < 0 {
			res.detectAt = t
		}
	}

	// reboot reloads the recorder from the NVRAM page — the volatile
	// ring died with the rail. The guarded arm treats a corrupt page as
	// a detection, verifies the degraded (empty) state, and immediately
	// rewrites a fresh page so the corruption cannot re-bite every
	// boot; the bare arm never looks at the error.
	reboot := func(t time.Duration) {
		if err := rec.Restore(page); err != nil {
			if rec.Len() != 0 {
				res.cleanReplay = false
			}
			if guarded {
				detect(t)
				res.recoveries++
				page = rec.Snapshot()
			}
		} else if !bytes.Equal(rec.Snapshot(), page) {
			res.cleanReplay = false
		}
	}

	// save persists one NVRAM page. An injected IO error tears the bare
	// arm's page mid-write; the guarded arm keeps the last good page
	// instead. The fs_corruption window damages the written bytes for
	// both arms — the guarded arm's read-back verification refuses the
	// page, the bare arm trusts it.
	save := func(t time.Duration) {
		fresh := rec.Snapshot()
		if err := m.IOCheck("nvram_write"); err != nil {
			if guarded {
				detect(t)
			} else {
				page = downlink.CorruptSnapshot(fresh, corrupter, "torn")
			}
			return
		}
		written := fresh
		if _, active := m.OSFaultActive(machine.OSFaultFSCorruption); active {
			written = downlink.CorruptSnapshot(written, corrupter, "bitflip")
		}
		if guarded && scratch.Restore(written) != nil {
			detect(t)
			res.recoveries++
			return // keep the last good page
		}
		page = written
	}

	firstSEL := c.SEL.SELEvery
	if class == machine.OSFaultKernelPanic {
		// Prime a latchup right before the panic: the recovery question
		// for this class is whether the watchdog reset clears an SEL the
		// dead board can no longer see, inside the detection window.
		firstSEL = onset - c.SEL.SampleEvery
	}
	sels := c.SEL.periodicSELs(firstSEL)
	nextSave := c.SnapshotEvery
	nextHousekeep := c.HousekeepEvery
	faultSeen := false
	var hkPayload [8]byte

	m.RunTrace(flight, func(tel machine.Telemetry) {
		// A power cycle is a reboot no matter who commanded it, so every
		// callback starts by reconciling the cycle count.
		if prot.reconcile(tel.T) {
			reboot(tel.T)
		}

		_, active := m.OSFaultActive(class)
		if tel.T >= onset {
			faultSeen = true
		}
		if faultSeen && !active && res.recoveredAt < 0 {
			res.recoveredAt = tel.T
		}

		sels.observe(m, tel.T)

		// Housekeeping: one telemetry record per period, plus the EMR
		// frontier read the flight software does on the same tick (an
		// injected failure there just retries next tick; the machine
		// counts it).
		if tel.T >= nextHousekeep {
			nextHousekeep += c.HousekeepEvery
			_ = m.IOCheck("emr_frontier_read")
			binary.LittleEndian.PutUint64(hkPayload[:], uint64(tel.T))
			if _, _, err := rec.Enqueue(0, hkPayload[:], tel.T); err == nil {
				res.enqueued++
			}
		}

		// NVRAM page save. A hung kernel cannot write the page (the
		// syscall never returns); a dead one never reaches this code.
		if tel.T >= nextSave {
			nextSave += c.SnapshotEvery
			if !m.KernelHung() {
				save(tel.T)
			}
		}

		d, cycled := prot.observe(tel)
		// Only the unambiguous OS-level signals count as detection:
		// a heartbeat gap (the board went silent) or a hang cycle (the
		// counter surface wedged). d.Fired is the SEL path doing its
		// ordinary job.
		if d.HangCycle || d.HeartbeatGap {
			detect(tel.T)
		}
		if cycled {
			reboot(tel.T)
		}
	})
	sels.close(c.SEL.Duration)

	res.missedSELs = sels.missed
	res.lost = res.enqueued - rec.Len()
	res.powerCycles = m.PowerCycles()
	res.wdResets = m.WatchdogResets()
	res.ioErrors = m.IOErrors()
	if guarded {
		res.hangCycles = prot.sup.HangCycles()
	}
	res.survived = !m.Damaged()
	return res, nil
}

// stallEMRStage runs the scheduler_stall class's EMR comparison and
// fills the trial's EMR columns: the guarded runtime (watchdog
// attached) kills the starved executor's visits and retries under the
// degraded plan; the bare runtime waits out every stall, and the
// makespan overrun is the price.
func stallEMRStage(c OSFaultCampaignConfig, seed int64, tr *OSFaultTrial) error {
	wc := WatchdogCampaignConfig{
		Datasets: 4,
		Chunk:    256,
		Seed:     seed,
		Watchdog: c.Watchdog,
		Stall:    c.Stall,
	}
	g, err := watchdogTrialArm(wc, c.StallExecutor, "hang")
	if err != nil {
		return err
	}
	tr.Kills = g.Kills
	tr.TMRGolden = g.TMROutputs
	tr.DegradedGolden = g.Degraded
	if tr.Kills > 0 && tr.DetectLatency < 0 {
		// The watchdog's deadline is the detection latency for this
		// class: the first kill fires exactly one deadline into the
		// starved visit.
		tr.DetectLatency = c.Watchdog.Deadline
	}

	// Bare runtime: same stalls, no watchdog. The run still completes —
	// nothing kills the wedged visits — but the makespan absorbs every
	// stall in full.
	healthy, err := wc.runWorkload(guard.RedundancyTMR.Plan(), nil, -1, "")
	if err != nil {
		return err
	}
	stalled, err := wc.runWorkload(guard.RedundancyTMR.Plan(), nil, c.StallExecutor, "hang")
	if err != nil {
		return err
	}
	tr.StallOverrun = stalled.Report.Makespan - healthy.Report.Makespan
	return nil
}
