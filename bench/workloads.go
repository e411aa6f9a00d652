package main

import (
	"time"

	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/mission"
	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
)

// workers is every campaign's scheduler width. It equals the CPU count of
// the 2-CPU hosts the benchmark was sized on and is fixed, not derived
// from the host, so a record's work does not change with the machine.
const workers = 2

// env is what a campaign list is built from: the benchmark seed, the
// size class, and the optional layers a pass attaches.
type env struct {
	seed  int64
	toy   bool                // test-sized inputs
	tel   *telemetry.Registry // traced passes only
	store *resultcache.Store  // warm-replay only
}

// size picks the full or the test-sized value.
func (e env) size(full, toy int) int {
	if e.toy {
		return toy
	}
	return full
}

// campaign is one call into an internal/experiments entry point.
type campaign struct {
	name string // span "experiments.<name>" and golden key
	run  func() (outcome, error)
}

// outcome is what a campaign call produced: its rendered table, whose
// hash is checked against bench/golden.txt, and the modelled results
// the record carries. Modelled values of one pass are summed by name.
type outcome struct {
	rendered string
	modelled map[string]float64
}

// workload is one named set of campaign calls.
type workload struct {
	name string
	// warm workloads fill a result store during set-up and replay it in
	// the timed phase instead of computing.
	warm      bool
	campaigns func(env) []campaign
	// The traced run's probe drives each layer with the workload's own
	// configs where it has them and package defaults otherwise:
	// probeSEL sets the machine and detector stream, probeEMR the EMR
	// device and the input bytes each workload build stages.
	probeSEL func(env) experiments.SELConfig
	probeEMR func(env) (emr.Config, int)
}

var workloadList = []workload{
	{name: "sel-detect", campaigns: selDetect, probeSEL: selConfig, probeEMR: defaultDevice},
	{name: "seu-inject", campaigns: seuInject, probeSEL: defaultSEL, probeEMR: seuDevice},
	{name: "flight-ops", campaigns: flightOps, probeSEL: flightSEL, probeEMR: defaultDevice},
	{name: "warm-replay", warm: true, campaigns: flightOps, probeSEL: flightSEL, probeEMR: defaultDevice},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func defaultSEL(e env) experiments.SELConfig {
	c := experiments.DefaultSELConfig()
	c.Seed = e.seed
	return c
}

// flightSEL is the flight arms' shared config.
func flightSEL(e env) experiments.SELConfig {
	c := experiments.DefaultGuardCampaignConfig().SEL
	c.Seed = e.seed
	return c
}

// defaultDevice is the EMR device the flight payloads and the watchdog
// build, staging the adaptive campaign's 32 KiB payload input.
func defaultDevice(env) (emr.Config, int) { return emr.DefaultConfig(), 32 << 10 }

// seuDevice is the 256 MiB device the EMR figures run on.
func seuDevice(e env) (emr.Config, int) {
	c := emr.DefaultConfig()
	c.DRAMSize, c.StorageSize = 256<<20, 256<<20
	return c, e.size(256<<10, 16<<10)
}

// selConfig is the SEL-detection campaigns' shared config.
func selConfig(e env) experiments.SELConfig {
	c := experiments.DefaultSELConfig()
	c.Duration = time.Duration(e.size(8*60, 10)) * time.Minute
	c.Seed = e.seed
	c.Workers = workers
	c.Telemetry = e.tel
	c.Cache = e.store
	return c
}

// selDetect streams long telemetry through the machine and the ILD and
// forest detectors; it never builds an EMR runtime.
func selDetect(e env) []campaign {
	c := selConfig(e)
	episodes := e.size(5, 1)
	sweeps := e.size(6, 1)
	return []campaign{
		{name: "table2", run: func() (outcome, error) {
			res, tbl, err := experiments.Table2(c)
			if err != nil {
				return outcome{}, err
			}
			return outcome{tbl.String(), map[string]float64{
				"ild_fnr": res[0].FalseNegativeRate,
				"ild_fpr": res[0].FalsePositiveRate,
			}}, nil
		}},
		{name: "fig10", run: func() (outcome, error) {
			fig, err := experiments.Fig10(c, episodes)
			if err != nil {
				return outcome{}, err
			}
			return outcome{rendered: fig.String()}, nil
		}},
		{name: "threshold", run: func() (outcome, error) {
			_, tbl, err := experiments.ThresholdSweep(c, sweeps)
			if err != nil {
				return outcome{}, err
			}
			return outcome{rendered: tbl.String()}, nil
		}},
	}
}

// seuInject runs the EMR figures and the fault-injection table on pooled
// 256 MiB runtimes; it takes no machine samples.
func seuInject(e env) []campaign {
	seu := experiments.SEUConfig{Size: e.size(256<<10, 16<<10), Seed: e.seed + 41, Workers: workers, Telemetry: e.tel, Cache: e.store}
	t7 := experiments.DefaultTable7Config()
	t7.Runs = e.size(40, 1)
	t7.Size = e.size(128<<10, 16<<10)
	t7.Seed = e.seed + 6
	t7.Workers = workers
	t7.Telemetry = e.tel
	t7.Cache = e.store
	return []campaign{
		{name: "fig11", run: func() (outcome, error) {
			rows, tbl, err := experiments.Fig11(seu)
			if err != nil {
				return outcome{}, err
			}
			var rel float64
			for _, r := range rows {
				rel += r.EMRRel / float64(len(rows))
			}
			return outcome{tbl.String(), map[string]float64{"emr_rel_runtime": rel}}, nil
		}},
		{name: "fig14", run: func() (outcome, error) {
			_, tbl, err := experiments.Fig14(seu)
			if err != nil {
				return outcome{}, err
			}
			return outcome{rendered: tbl.String()}, nil
		}},
		{name: "table7", run: func() (outcome, error) {
			tallies, tbl, err := experiments.Table7(t7)
			if err != nil {
				return outcome{}, err
			}
			sdc := 0
			for _, scheme := range []string{"EMR", "EMR + MBU", "3-MR"} {
				sdc += tallies[scheme].Counts[fault.SDC]
			}
			return outcome{tbl.String(), map[string]float64{"protected_sdc": float64(sdc)}}, nil
		}},
	}
}

// flightOps runs the hand-rolled flight loops: many short arms, each
// building its own machine and detector, and EMR devices built fresh.
func flightOps(e env) []campaign {
	gc := experiments.DefaultGuardCampaignConfig()
	gc.SEL.Seed = e.seed
	gc.SEL.Workers = workers
	gc.SEL.Telemetry = e.tel
	gc.SEL.Cache = e.store
	if e.toy {
		gc.Kinds, gc.FaultDurations = gc.Kinds[:1], gc.FaultDurations[:1]
		gc.SEL.Duration = 20 * time.Minute
	}

	wc := experiments.DefaultWatchdogCampaignConfig()
	wc.Seed = e.seed + 8
	wc.Workers = workers
	wc.Telemetry = e.tel
	wc.Cache = e.store
	wc.Datasets = e.size(wc.Datasets, 1)

	oc := experiments.DefaultOSFaultCampaignConfig()
	oc.SEL.Seed = e.seed
	oc.SEL.Workers = workers
	oc.SEL.Telemetry = e.tel
	oc.SEL.Cache = e.store
	if e.toy {
		oc.Classes, oc.Onsets = oc.Classes[:1], oc.Onsets[:1]
		oc.SEL.Duration = 20 * time.Minute
	}

	ac := experiments.DefaultAdaptiveCampaignConfig()
	ac.SEL.Seed = e.seed
	ac.SEL.Workers = workers
	ac.SEL.Telemetry = e.tel
	ac.SEL.Cache = e.store
	if e.toy {
		short := mission.LEOWithSAA()
		short.Phase = []mission.Phase{mission.NewPhase(mission.PhaseLEO, 10*time.Minute), mission.NewPhase(mission.PhaseSAA, 10*time.Minute)}
		ac.Profiles = []mission.Profile{short}
	}

	dc := experiments.DefaultDownlinkCampaignConfig()
	dc.Seed = e.seed + 23
	dc.Workers = workers
	dc.Telemetry = e.tel
	dc.Cache = e.store
	if e.toy {
		dc.LossRates, dc.BlackoutDurations, dc.Policies = dc.LossRates[:1], dc.BlackoutDurations[:1], dc.Policies[:1]
	}

	mc := experiments.DefaultMissionConfig()
	mc.Seed = e.seed + 2
	mc.Workers = workers
	mc.Telemetry = e.tel
	mc.Cache = e.store
	// Six-hour missions pass the 3 h payload contact, so the protected
	// arm runs its EMR payload as well as the machine and detector loop.
	mc.Missions = e.size(4, 1)
	mc.Duration = time.Duration(e.size(6*60, 20)) * time.Minute

	missed := func(n int) map[string]float64 { return map[string]float64{"missed_sels": float64(n)} }
	return []campaign{
		{name: "guard", run: func() (outcome, error) {
			trials, tbl, err := experiments.GuardCampaign(gc)
			if err != nil {
				return outcome{}, err
			}
			n := 0
			for _, t := range trials {
				n += t.MissedSELs
			}
			return outcome{tbl.String(), missed(n)}, nil
		}},
		{name: "watchdog", run: func() (outcome, error) {
			_, tbl, err := experiments.WatchdogCampaign(wc)
			if err != nil {
				return outcome{}, err
			}
			return outcome{rendered: tbl.String()}, nil
		}},
		{name: "oskernel", run: func() (outcome, error) {
			trials, tbl, err := experiments.OSFaultCampaign(oc)
			if err != nil {
				return outcome{}, err
			}
			n := 0
			for _, t := range trials {
				n += t.MissedSELs
			}
			return outcome{tbl.String(), missed(n)}, nil
		}},
		{name: "adaptive", run: func() (outcome, error) {
			trials, tbl, err := experiments.AdaptiveCampaign(ac)
			if err != nil {
				return outcome{}, err
			}
			n := 0
			for _, t := range trials {
				n += t.Adaptive.MissedSELs
			}
			return outcome{tbl.String(), missed(n)}, nil
		}},
		{name: "downlink", run: func() (outcome, error) {
			trials, tbl, err := experiments.DownlinkCampaign(dc)
			if err != nil {
				return outcome{}, err
			}
			var retx, enq uint64
			for _, t := range trials {
				retx += t.Retransmits
				enq += t.Enqueued
			}
			return outcome{tbl.String(), map[string]float64{
				"downlink_retransmits": float64(retx),
				"downlink_enqueued":    float64(enq),
			}}, nil
		}},
		{name: "mission", run: func() (outcome, error) {
			protected, _, tbl, err := experiments.MissionSurvival(mc)
			if err != nil {
				return outcome{}, err
			}
			return outcome{tbl.String(), map[string]float64{
				"survival": float64(protected.Survived) / float64(mc.Missions),
			}}, nil
		}},
	}
}
