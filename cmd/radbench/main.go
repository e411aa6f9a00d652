// Command radbench regenerates the paper's tables and figures from the
// Radshield reproduction. Each experiment prints the same rows/series
// the paper reports; absolute values come from the simulated testbed, so
// shapes (who wins, by what factor) are the comparison target.
//
// Usage:
//
//	radbench -exp all
//	radbench -exp tab2 -hours 24
//	radbench -exp fig11,fig14 -size 1048576
//	radbench -exp tab7 -runs 100
//	radbench -exp tab2,fig11 -telemetry out.json
//	radbench -exp guard,oskernel,adaptive,downlink
//	radbench -exp oskernel -osfault panic,fscorrupt
//	radbench -list
//
// The tab7, guard, oskernel and adaptive experiments end in safety
// verdicts: a failed one ships a priority-0 protection_failure event
// down the -downlink feed. Any failed experiment, the downlink ARQ
// verdict included, drains the feed and exits non-zero.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/groundlink"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/power"
	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
)

type runner func(sel experiments.SELConfig, seu experiments.SEUConfig) error

// osFaultFlag narrows the oskernel campaign's fault-class grid, and
// runsFlag sets Table 7's depth; they are package-level because the
// registry closures are built before flag.Parse runs. main validates
// osFaultFlag against the selected experiments.
var (
	osFaultFlag = flag.String("osfault", "",
		"comma-separated OS fault classes for -exp oskernel (default all; valid: panic, hang, ioburst, schedstall, fscorrupt)")
	runsFlag = flag.Int("runs", experiments.DefaultTable7Config().Runs, "fault injections per scheme for -exp tab7 (paper: 20)")
)

var registry = map[string]struct {
	desc string
	run  runner
}{
	"fig2": {desc: "current trace of a navigation workload before/after SEL", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		res := experiments.Fig2(sel)
		fmt.Printf("max nominal current: %.3f A (crosses %.1f A trip: %v)\n", res.MaxNominalA, res.ThresholdA, res.CrossesNominal)
		fmt.Printf("max latched quiescent current: %.3f A (crosses trip: %v)\n", res.MaxLatchedA, res.CrossesLatched)
		fmt.Println(summarize(res.Fig, 12))
		return nil
	}},
	"fig5": {desc: "current vs CPU-activity correlation under stepped matmul", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		res := experiments.Fig5(sel)
		fmt.Printf("correlation(current, instruction rate) = %.4f (paper: 0.997)\n", res.Correlation)
		fmt.Println(summarize(res.Fig, 12))
		return nil
	}},
	"tab2": {desc: "SEL detector accuracy: ILD vs random forest vs static thresholds", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		_, tbl, err := experiments.Table2(sel)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"fig10": {desc: "ILD misdetection rate vs latchup current", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		fig, err := experiments.Fig10(sel, 10)
		if err != nil {
			return err
		}
		fmt.Println(fig)
		return nil
	}},
	"tab3": {desc: "worst-case ILD overhead", run: func(experiments.SELConfig, experiments.SEUConfig) error {
		fmt.Println(experiments.Table3(19 * time.Second))
		return nil
	}},
	"tab4": {desc: "relative protected die area per scheme", run: func(experiments.SELConfig, experiments.SEUConfig) error {
		fmt.Println(experiments.Table4())
		return nil
	}},
	"fig11": {desc: "relative runtime of 3-MR and EMR per workload", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		_, tbl, err := experiments.Fig11(seu)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"fig12": {desc: "AES-256 runtime vs input size across frontiers", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		fig, err := experiments.Fig12(seu.Seed, seu.Workers, nil)
		if err != nil {
			return err
		}
		fmt.Println(fig)
		return nil
	}},
	"fig13": {desc: "replication-threshold sweep: runtime and memory", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		_, tbl, err := experiments.Fig13(seu)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"tab6": {desc: "image-processing runtime breakdown", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		res, err := experiments.Table6(seu)
		if err != nil {
			return err
		}
		fmt.Println(res.Tbl)
		return nil
	}},
	"fig14": {desc: "relative energy per workload and scheme", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		_, tbl, err := experiments.Fig14(seu)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"tab7": {desc: "fault-injection outcomes per scheme", run: func(sel experiments.SELConfig, seu experiments.SEUConfig) error {
		tallies, tbl, err := experiments.Table7(tab7Config(sel, seu))
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return tab7Gate(ship, tallies)
	}},
	"tab8": {desc: "developer overhead to adopt EMR", run: func(experiments.SELConfig, experiments.SEUConfig) error {
		fmt.Println(experiments.Table8())
		return nil
	}},
	"wov": {desc: "window-of-vulnerability estimate (§4.2.6)", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		wov, err := experiments.WindowOfVulnerability(seu)
		if err != nil {
			return err
		}
		fmt.Printf("EMR relative strike probability vs serial 3-MR: %.2f (paper: 0.80)\n", wov)
		return nil
	}},
	"ablate-rollingmin": {desc: "rolling-minimum filter ablation", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		fmt.Println(experiments.AblationRollingMin(sel))
		return nil
	}},
	"ablate-gate": {desc: "quiescence-gate ablation", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		tbl, err := experiments.AblationQuiescenceGate(sel)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"ablate-bubbles": {desc: "bubble-cadence ablation", run: func(experiments.SELConfig, experiments.SEUConfig) error {
		fmt.Println(experiments.AblationBubbleCadence())
		return nil
	}},
	"ablate-classifier": {desc: "ILD model-choice ablation (linear vs forest vs bayes)", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		tbl, err := experiments.AblationClassifier(sel)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"ablate-scheduling": {desc: "jobset-scheduling ablation", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		tbl, err := experiments.AblationScheduling(seu)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"ablate-cacheecc": {desc: "flush discipline vs hardware cache ECC (§3.2)", run: func(_ experiments.SELConfig, seu experiments.SEUConfig) error {
		tbl, err := experiments.AblationCacheECC(seu)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"profiles": {desc: "mission-profile quiescence & detection opportunities (§3.1)", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		_, tbl := experiments.MissionProfiles(sel.Seed, sel.Workers)
		fmt.Println(tbl)
		return nil
	}},
	"threshold": {desc: "decision-threshold sweep 0.04–0.08 A (§3.1: 0.055 chosen)", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		_, tbl, err := experiments.ThresholdSweep(sel, 10)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"missions": {desc: "Monte-Carlo mission survival with vs without Radshield", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		_, _, tbl, err := experiments.MissionSurvival(missionConfig(sel))
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	}},
	"guard": {desc: "guard-layer campaign: sensor faults vs the degradation ladder, replica faults vs the watchdog", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		gc := experiments.DefaultGuardCampaignConfig()
		gc.SEL.Seed = sel.Seed
		gc.SEL.Workers = sel.Workers
		gc.SEL.Telemetry = sel.Telemetry
		gc.SEL.Cache = sel.Cache
		trials, tbl, err := experiments.GuardCampaign(gc)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		wc := experiments.DefaultWatchdogCampaignConfig()
		wc.Seed = sel.Seed + 8
		wc.Workers = sel.Workers
		wc.Telemetry = sel.Telemetry
		wc.Cache = sel.Cache
		wdTrials, wdTbl, err := experiments.WatchdogCampaign(wc)
		if err != nil {
			return err
		}
		fmt.Println(wdTbl)
		return guardGate(ship, trials, wdTrials)
	}},
	"oskernel": {desc: "OS-fault campaign: kernel panics, hangs, IO bursts, scheduler stalls, NVRAM corruption vs watchdog recovery", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		oc := experiments.DefaultOSFaultCampaignConfig()
		classes, err := experiments.ParseOSFaultClasses(*osFaultFlag)
		if err != nil {
			return err
		}
		oc.Classes = classes
		oc.SEL.Seed = sel.Seed
		oc.SEL.Workers = sel.Workers
		oc.SEL.Telemetry = sel.Telemetry
		oc.SEL.Cache = sel.Cache
		trials, tbl, err := experiments.OSFaultCampaign(oc)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return osKernelGate(ship, trials)
	}},
	"adaptive": {desc: "closed-loop adaptive protection vs always-max static posture across mission profiles", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		ac := experiments.DefaultAdaptiveCampaignConfig()
		ac.SEL.Seed = sel.Seed
		ac.SEL.Workers = sel.Workers
		ac.SEL.Telemetry = sel.Telemetry
		ac.SEL.Cache = sel.Cache
		trials, tbl, err := experiments.AdaptiveCampaign(ac)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return adaptiveGate(ship, trials)
	}},
	"featsel": {desc: "random-forest feature selection for ILD's metric set (§3.1)", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		res := experiments.FeatureSelection(sel)
		fmt.Println(res.Tbl)
		fmt.Printf("importance mass: genuine counters %.3f, distractors %.3f\n", res.TopCounters, res.DistractorMass)
		return nil
	}},
	"downlink": {desc: "downlink campaign: loss × blackout × service policy, paired lossy/clean arms", run: func(sel experiments.SELConfig, _ experiments.SEUConfig) error {
		dc := experiments.DefaultDownlinkCampaignConfig()
		dc.Seed = sel.Seed + 23
		dc.Workers = sel.Workers
		dc.Telemetry = sel.Telemetry
		dc.Cache = sel.Cache
		trials, tbl, err := experiments.DownlinkCampaign(dc)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		for _, tr := range trials {
			if !tr.P0Recovered {
				return fmt.Errorf("lossy arm lost priority-0 events (loss=%g blackout=%v policy=%v)",
					tr.Loss, tr.Blackout, tr.Policy)
			}
		}
		fmt.Println("ARQ recovered 100% of priority-0 events on every lossy arm")
		return nil
	}},
}

// tab7Config is Table 7 at -runs injections per scheme on half the
// -size input. Its seed is -seed + 6, so the default seed 1 keeps the
// package default 7.
func tab7Config(sel experiments.SELConfig, seu experiments.SEUConfig) experiments.Table7Config {
	cfg := experiments.DefaultTable7Config()
	cfg.Runs = *runsFlag
	cfg.Size = seu.Size / 2
	cfg.Seed = sel.Seed + 6
	cfg.Workers = seu.Workers
	cfg.Telemetry = seu.Telemetry
	cfg.Cache = seu.Cache
	return cfg
}

// missionConfig is the mission-survival campaign at seed -seed + 2, so
// the default seed 1 keeps the package default 3.
func missionConfig(sel experiments.SELConfig) experiments.MissionConfig {
	cfg := experiments.DefaultMissionConfig()
	cfg.Seed = sel.Seed + 2
	cfg.Workers = sel.Workers
	cfg.Telemetry = sel.Telemetry
	cfg.Cache = sel.Cache
	return cfg
}

// The -downlink feed: each experiment's completion goes to the ground
// station as housekeeping, verdicts as priority-0 events. The feed's
// clock is the campaign event counter — radbench has no mission
// timeline of its own.
var (
	feed  *groundlink.Feed
	dlNow time.Duration
)

// ship sends one message down the feed; without -downlink it does
// nothing.
func ship(vc uint8, msg string) {
	if feed == nil {
		return
	}
	dlNow += time.Millisecond
	err := feed.Enqueue(vc, []byte(msg), dlNow)
	if err == nil {
		dlNow += time.Millisecond
		err = feed.Tick(dlNow)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "radbench: downlink: %v\n", err)
		os.Exit(1)
	}
}

// drainFeed flushes any unacknowledged frames before exit.
func drainFeed() {
	if feed == nil {
		return
	}
	if _, err := feed.Drain(dlNow+time.Millisecond, dlNow+time.Minute, time.Millisecond); err != nil {
		fmt.Fprintf(os.Stderr, "radbench: downlink: %v\n", err)
		os.Exit(1)
	}
}

// shipFunc is ship's signature; the verdict gates take one so tests can
// record what they send.
type shipFunc func(vc uint8, msg string)

// protectionFailure ships a failed safety verdict as the priority-0
// event "protection_failure <fields>" and returns it as the
// experiment's error.
func protectionFailure(ship shipFunc, fields, format string, args ...any) error {
	ship(0, "protection_failure "+fields)
	return fmt.Errorf("PROTECTION FAILURE: "+format, args...)
}

// tab7Gate applies Table 7's safety verdict: no silent corruption may
// get past a redundancy scheme (3-MR, EMR, EMR + MBU).
func tab7Gate(ship shipFunc, tallies map[string]*fault.Tally) error {
	sdc := 0
	for _, scheme := range []string{"3-MR", "EMR", "EMR + MBU"} {
		sdc += tallies[scheme].Counts[fault.SDC]
	}
	if sdc > 0 {
		return protectionFailure(ship, fmt.Sprintf("campaign=table7 sdc=%d", sdc),
			"%d silent corruptions escaped a redundancy scheme", sdc)
	}
	fmt.Printf("redundancy held: no silent corruption under 3-MR, EMR or EMR + MBU (%d unprotected, %d under the checksum guard)\n",
		tallies["None"].Counts[fault.SDC], tallies["Checksum"].Counts[fault.SDC])
	return nil
}

// guardGate applies the guard layer's safety verdicts: a guarded
// mission may never miss a latchup because its own sensor died, nor
// lose the board, and a degraded EMR retry may never produce wrong
// outputs.
func guardGate(ship shipFunc, trials []experiments.GuardTrial, wd []experiments.WatchdogTrial) error {
	for _, tr := range trials {
		if tr.Kind == power.FaultStuck && tr.MissedSELs > 0 {
			return protectionFailure(ship, fmt.Sprintf("campaign=guard missed_sels=%d", tr.MissedSELs),
				"%d SELs missed behind a stuck sensor", tr.MissedSELs)
		}
		if !tr.Survived {
			return protectionFailure(ship, fmt.Sprintf("campaign=guard board_lost_under=%v", tr.Kind),
				"guarded mission lost the board under a %v sensor fault", tr.Kind)
		}
	}
	for _, tr := range wd {
		if !tr.TMROutputs || !tr.Degraded {
			return protectionFailure(ship, fmt.Sprintf("campaign=watchdog cause=%s executor=%d", tr.Cause, tr.Executor),
				"wrong outputs with a %s replica (executor %d)", tr.Cause, tr.Executor)
		}
	}
	fmt.Println("guard layer held: zero missed SELs behind sensor faults, golden outputs through replica faults")
	return nil
}

// osKernelGate applies the recovery layer's safety verdicts: every OS
// fault class must be detected, the guarded mission must keep the board
// and miss no latchup, the recorder must never replay corrupt state,
// and a stalled EMR run must still produce golden outputs. On a pass it
// ships one "watchdog_reset" housekeeping payload per watchdog reset and
// one "recorder_recovered" per recovered recorder page, each naming its
// trial's fault class and onset: the ground station's /state counts
// these payloads, so it tallies what the campaign counted.
func osKernelGate(ship shipFunc, trials []experiments.OSFaultTrial) error {
	for _, tr := range trials {
		switch {
		case tr.DetectLatency < 0:
			return protectionFailure(ship, fmt.Sprintf("campaign=oskernel class=%v cause=undetected", tr.Class),
				"%v fault never detected", tr.Class)
		case !tr.Survived:
			return protectionFailure(ship, fmt.Sprintf("campaign=oskernel class=%v cause=board_lost", tr.Class),
				"guarded mission lost the board under a %v fault", tr.Class)
		case tr.MissedSELs > 0:
			return protectionFailure(ship, fmt.Sprintf("campaign=oskernel class=%v missed_sels=%d", tr.Class, tr.MissedSELs),
				"%d SELs missed under a %v fault", tr.MissedSELs, tr.Class)
		case !tr.CleanReplay:
			return protectionFailure(ship, fmt.Sprintf("campaign=oskernel class=%v cause=dirty_replay", tr.Class),
				"recorder replayed corrupt state under a %v fault", tr.Class)
		case tr.Class == machine.OSFaultSchedulerStall && (!tr.TMRGolden || !tr.DegradedGolden):
			return protectionFailure(ship, fmt.Sprintf("campaign=oskernel class=%v cause=wrong_outputs", tr.Class),
				"wrong EMR outputs under a %v fault", tr.Class)
		}
	}
	fmt.Println("recovery layer held: every OS fault detected, board kept, no corrupt replay")
	for _, tr := range trials {
		for range tr.WatchdogResets {
			ship(1, fmt.Sprintf("watchdog_reset class=%v onset=%v", tr.Class, tr.Onset))
		}
		for range tr.Recoveries {
			ship(1, fmt.Sprintf("recorder_recovered class=%v onset=%v", tr.Class, tr.Onset))
		}
	}
	return nil
}

// adaptiveGate applies the adaptation safety verdicts: relaxing the
// posture in quiet phases may never cost survival, missed latchups, or
// corrupt downlinked data relative to the always-max arm.
func adaptiveGate(ship shipFunc, trials []experiments.AdaptiveTrial) error {
	for _, tr := range trials {
		st, ad := tr.Static, tr.Adaptive
		switch {
		case !ad.Survived || ad.Survived != st.Survived:
			return protectionFailure(ship, fmt.Sprintf("campaign=adaptive profile=%s cause=board_lost", tr.Profile),
				"adaptive arm lost the board on %s (static survived=%v)", tr.Profile, st.Survived)
		case ad.MissedSELs > st.MissedSELs:
			return protectionFailure(ship, fmt.Sprintf("campaign=adaptive profile=%s missed_sels=%d static=%d", tr.Profile, ad.MissedSELs, st.MissedSELs),
				"adaptive arm missed %d SELs on %s, static missed %d", ad.MissedSELs, tr.Profile, st.MissedSELs)
		case ad.SDC && !st.SDC:
			return protectionFailure(ship, fmt.Sprintf("campaign=adaptive profile=%s cause=sdc", tr.Profile),
				"adaptive arm downlinked corrupt data on %s, static did not", tr.Profile)
		}
	}
	fmt.Println("adaptation held: survival and missed-SEL numbers match the always-max arm on every profile")
	return nil
}

// wallNow is the one sanctioned host-clock read in radbench: -wallclock
// mode exists to profile real-hardware runs, and its times are the one
// output that differs between reruns.
//
//radlint:allow simclocktime -wallclock mode deliberately reads the host clock
func wallNow() time.Time { return time.Now() }

// summarize renders a figure with at most n points per series so console
// output stays readable.
func summarize(f *experiments.Figure, n int) string {
	out := &experiments.Figure{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
	for _, s := range f.Series {
		stride := len(s.X) / n
		if stride < 1 {
			stride = 1
		}
		ds := experiments.Series{Name: s.Name}
		for i := 0; i < len(s.X); i += stride {
			ds.Add(s.X[i], s.Y[i])
		}
		out.Series = append(out.Series, ds)
	}
	return out.String()
}

// checkFlags rejects flag values radbench cannot run, before any
// output file is created or experiment starts: a campaign length
// experiments.CheckHours refuses, an input size under one byte, a
// Table 7 with no runs, an unknown experiment id, a -link-id
// downlink.CheckLinkID refuses when -downlink is set, an invalid
// OS-fault class, or -osfault without the one experiment that reads it.
func checkFlags(hours float64, size, runs int, osFault string, targets []string, dlAddr string, linkID int) error {
	if err := experiments.CheckHours(hours); err != nil {
		return err
	}
	if size < 1 {
		return fmt.Errorf("-size %d, want at least 1 byte", size)
	}
	if runs < 1 {
		return fmt.Errorf("-runs %d, want at least 1", runs)
	}
	for _, name := range targets {
		if _, ok := registry[name]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", name)
		}
	}
	if dlAddr != "" {
		if err := downlink.CheckLinkID(linkID); err != nil {
			return err
		}
	}
	if osFault == "" {
		return nil
	}
	if _, err := experiments.ParseOSFaultClasses(osFault); err != nil {
		return err
	}
	if !slices.Contains(targets, "oskernel") {
		return errors.New("-osfault only applies to -exp oskernel (valid classes: panic, hang, ioburst, schedstall, fscorrupt)")
	}
	return nil
}

// printCacheSummary prints the result cache's closing line. A store
// stops writing after its first append failure (Store.Err), so that
// error goes to stderr beside the line: the run's results are still
// right, but the misses after it were not stored for the next run.
func printCacheSummary(stdout, stderr io.Writer, st resultcache.Stats, putErr error, dir string) {
	fmt.Fprintf(stdout, "resultcache: %d hits, %d misses (%.1f%% hit rate), %d entries, %d bytes in %s\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Entries, st.Bytes, dir)
	if putErr != nil {
		fmt.Fprintf(stderr, "radbench: result cache stopped storing arms: %v\n", putErr)
	}
}

// telemetryMux is the -telemetry-http surface: reg's live snapshot on
// /telemetry, and the expvar variables on /debug/vars, where reg's
// snapshot is published as "radshield". expvar panics on a second
// Publish of one name, so a process builds the mux once.
func telemetryMux(reg *telemetry.Registry) *http.ServeMux {
	expvar.Publish("radshield", expvar.Func(func() any { return reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.Handle("/telemetry", groundlink.SnapshotHandler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		hours   = flag.Float64("hours", 4, "SEL campaign length in simulated hours")
		size    = flag.Int("size", 256<<10, "workload input size in bytes")
		seed    = flag.Int64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "campaign scheduler width; 0 = one worker per CPU (output is identical at any width)")
		telOut  = flag.String("telemetry", "", "write a JSON telemetry snapshot to this file at exit ('-' for stdout)")
		telHTTP = flag.String("telemetry-http", "", "serve the telemetry snapshot (and expvar) on this address while running")
		wall    = flag.Bool("wallclock", false, "print each experiment's host wall time (real-hardware mode)")
		dlAddr  = flag.String("downlink", "", "stream experiment completions to a groundstation at this TCP address (see cmd/groundstation)")
		rcDir   = flag.String("resultcache", "", "replay unchanged campaign arms from this content-addressed cache directory, created if absent (see RESULTCACHE.md)")
		dlLink  = flag.Int("link-id", 2, "spacecraft link id for -downlink")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file (see PERFORMANCE.md)")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file at exit (see PERFORMANCE.md)")
	)
	flag.Parse()

	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list {
		for _, name := range names {
			fmt.Printf("  %-18s %s\n", name, registry[name].desc)
		}
		return
	}

	targets := names
	if *exp != "all" {
		targets = strings.Split(*exp, ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
	}
	if err := checkFlags(*hours, *size, *runsFlag, *osFaultFlag, targets, *dlAddr, *dlLink); err != nil {
		fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
		os.Exit(2)
	}

	// Output files are created before the run, so an unwritable path
	// fails here instead of after the campaigns.
	telFile := os.Stdout
	if *telOut != "" && *telOut != "-" {
		f, err := os.Create(*telOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
			os.Exit(1)
		}
		telFile = f
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
		os.Exit(1)
	}

	var reg *telemetry.Registry
	if *telOut != "" || *telHTTP != "" {
		reg = telemetry.NewRegistry(telemetry.DefaultEventCap)
		// Pre-register the ILD and EMR metric families so every snapshot
		// carries the full schema, even for experiments that exercise only
		// one protection component (e.g. -exp tab2 never builds an EMR
		// runtime, -exp fig11 never builds a detector).
		ild.NewInstruments(reg)
		emr.PreRegister(reg)
	}
	if *telHTTP != "" {
		mux := telemetryMux(reg)
		//radlint:allow schedonly telemetry HTTP server serves external observers over real sockets and never touches campaign state or output
		go func() {
			if err := http.ListenAndServe(*telHTTP, mux); err != nil {
				fmt.Fprintf(os.Stderr, "radbench: telemetry-http: %v\n", err)
			}
		}()
		fmt.Printf("telemetry: http://%s/telemetry\n\n", *telHTTP)
	}

	if *dlAddr != "" {
		var err error
		if feed, err = groundlink.DialFeed(*dlAddr, *dlLink); err != nil {
			fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
			os.Exit(1)
		}
		defer feed.Close()
		fmt.Printf("downlink engaged: link %d to %s\n\n", *dlLink, *dlAddr)
	}

	// The result cache replays arms whose (config, seed, code version)
	// key matches a prior run; a dir locked by another process degrades
	// to an uncached run rather than blocking the campaign.
	var store *resultcache.Store
	if *rcDir != "" {
		var err error
		store, err = resultcache.Open(*rcDir, resultcache.WithTelemetry(reg))
		if errors.Is(err, resultcache.ErrLocked) {
			fmt.Fprintf(os.Stderr, "radbench: result cache %s is locked by another process; running uncached\n", *rcDir)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
			os.Exit(1)
		}
	}

	sel := experiments.DefaultSELConfig()
	sel.Duration = time.Duration(*hours * float64(time.Hour))
	sel.Seed = *seed
	sel.Workers = *workers
	sel.Telemetry = reg
	sel.Cache = store
	seu := experiments.SEUConfig{Size: *size, Seed: *seed + 41, Workers: *workers, Telemetry: reg, Cache: store}

	// A rerun prints the same bytes, so logs stay diffable; -wallclock
	// adds each experiment's host time.
	for _, name := range targets {
		entry := registry[name]
		fmt.Printf("### %s — %s\n", name, entry.desc)
		var start time.Time
		if *wall {
			start = wallNow()
		}
		if err := entry.run(sel, seu); err != nil {
			fmt.Fprintf(os.Stderr, "radbench: %s: %v\n", name, err)
			drainFeed()
			os.Exit(1)
		}
		if *wall {
			fmt.Printf("(%s in %v wall time)\n", name, wallNow().Sub(start).Round(time.Millisecond))
		}
		fmt.Println()
		ship(1, fmt.Sprintf("experiment=%s status=ok", name))
	}
	if store != nil {
		st, putErr := store.Stats(), store.Err()
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "radbench: result cache: %v\n", err)
			os.Exit(1)
		}
		printCacheSummary(os.Stdout, os.Stderr, st, putErr, *rcDir)
	}
	ship(0, fmt.Sprintf("campaign_complete experiments=%d", len(targets)))
	drainFeed()

	if *telOut != "" {
		if err := reg.Snapshot().WriteJSON(telFile); err != nil {
			fmt.Fprintf(os.Stderr, "radbench: writing telemetry: %v\n", err)
			os.Exit(1)
		}
		if telFile != os.Stdout {
			if err := telFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "radbench: writing telemetry: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("telemetry snapshot written to %s\n", *telOut)
		}
	}

	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
		os.Exit(1)
	}
	if *cpuProf != "" {
		fmt.Printf("CPU profile written to %s\n", *cpuProf)
	}
	if *memProf != "" {
		fmt.Printf("heap profile written to %s\n", *memProf)
	}
}
