package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"radshield/internal/telemetry"
)

// campaignNames lists every campaign any workload calls, so each traced
// run reports all of them (0 where its workload does not call one).
var campaignNames = []string{"table2", "fig10", "threshold", "fig11", "fig14", "table7",
	"guard", "watchdog", "oskernel", "adaptive", "downlink", "mission"}

// layerValues computes the per-layer metrics of a traced run. Per-call
// costs come from the probe; counts, ratios and sizes come from the
// traced repetitions and read 0 where the workload does not reach the
// layer; trace.* compares the traced with the untraced repetitions.
func layerValues(untraced, traced []passResult, pr *probeResult) map[string][]float64 {
	v := map[string][]float64{}
	for name, x := range pr.Metrics {
		v[name] = []float64{x}
	}
	for _, name := range campaignNames {
		v["experiments."+name+"_s"] = field(traced, func(p passResult) float64 {
			for _, c := range p.Calls {
				if c.Name == name {
					return c.Seconds
				}
			}
			return 0
		})
	}
	// An instrumented detector observes every machine sample of its arm;
	// arms whose detectors run without a registry (guard, oskernel,
	// adaptive, mission) are not counted.
	v["machine.samples"] = counterValues(traced, "ild_samples_total")

	counter := func(p passResult, name string) float64 { return counterValues([]passResult{p}, name)[0] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["ild.false_trip_ratio"] = field(traced, func(p passResult) float64 {
		return ratio(counter(p, "ild_false_trips_total"), counter(p, "ild_samples_total"))
	})
	v["emr.runs"] = counterValues(traced, "emr_runs_total")
	v["emr.vote_corrected_ratio"] = field(traced, func(p passResult) float64 {
		corrected := counter(p, "emr_votes_corrected_total")
		return ratio(corrected, corrected+counter(p, "emr_votes_unanimous_total")+counter(p, "emr_votes_failed_total"))
	})
	v["emr.pool_hit_ratio"] = field(traced, func(p passResult) float64 {
		hits := counter(p, "emr_pool_hits_total")
		return ratio(hits, hits+counter(p, "emr_pool_misses_total"))
	})
	v["downlink.retransmit_ratio"] = field(traced, func(p passResult) float64 {
		return ratio(p.Modelled["downlink_retransmits"], p.Modelled["downlink_enqueued"])
	})
	v["resultcache.hit_ratio"] = field(traced, func(p passResult) float64 {
		return ratio(float64(p.Hits), float64(p.Hits+p.Misses))
	})
	v["resultcache.mb"] = field(traced, func(p passResult) float64 { return float64(p.StoreBytes) / 1e6 })
	v["sched.trials"] = counterValues(traced, "sched_trials_total")

	wall := func(ps []passResult) float64 {
		return quantile(field(ps, func(p passResult) float64 { return p.WallS }), 2)
	}
	v["trace.overhead_frac"] = []float64{wall(traced)/wall(untraced) - 1}
	v["trace.coverage"] = field(traced, func(p passResult) float64 { return coverage(p.Spans) })
	return v
}

// coverage is the share of the root span covered by its layer spans:
// campaign calls and result-store opens and closes.
func coverage(spans []span) float64 {
	var covered float64
	for _, s := range spans {
		if s.Parent == 0 && (strings.HasPrefix(s.Name, "experiments.") || strings.HasPrefix(s.Name, "resultcache.")) {
			covered += s.End - s.Start
		}
	}
	return covered / (spans[0].End - spans[0].Start)
}

// attribution is one layer's estimated share of a pass: calls into the
// layer times the probe's cost per call, set beside the pass's CPU time
// (with two workers, layer time adds up faster than wall time).
type attribution struct {
	Layer     string  `json:"layer"`
	Calls     float64 `json:"calls"`
	CallsFrom string  `json:"calls_from"`
	PerCallS  float64 `json:"per_call_s"`
	EstS      float64 `json:"est_s"`
	Share     float64 `json:"share_of_cpu"`
}

func attributions(m map[string]summary, cpuS float64) []attribution {
	med := func(name string) float64 { return m[name].Median }
	rows := []attribution{
		{"machine step+sample", med("machine.samples"), "registry ild_samples_total; guard, oskernel, adaptive and mission arms run without a registry and are not counted", med("machine.step_sample_ns") / 1e9, 0, 0},
		{"ild observe", med("machine.samples"), "registry ild_samples_total; guard, oskernel, adaptive and mission arms run without a registry and are not counted", med("ild.observe_ns") / 1e9, 0, 0},
		{"emr run", med("emr.runs"), "registry emr_runs_total; flight arms run without a registry and are not counted", med("emr.run_ms") / 1e3, 0, 0},
		{"sched dispatch", med("sched.trials"), "registry sched_trials_total", med("sched.dispatch_us") / 1e6, 0, 0},
	}
	for i := range rows {
		rows[i].EstS = rows[i].Calls * rows[i].PerCallS
		if cpuS > 0 {
			rows[i].Share = rows[i].EstS / cpuS
		}
	}
	return rows
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json:
// the first traced repetition's spans and counters, the probe's spans
// and aggregated calls, and the attribution table over the traced
// repetitions' median CPU time.
type traceFile struct {
	Workload    string                      `json:"workload"`
	Seed        int64                       `json:"seed"`
	Spans       []spanSelfTime              `json:"spans"`
	Counters    []telemetry.CounterSnapshot `json:"counters"`
	ProbeSpans  []spanSelfTime              `json:"probe_spans"`
	Aggregated  []*aggSpan                  `json:"probe_calls"`
	Attribution []attribution               `json:"attribution"`
}

// spanSelfTime is a span with its self time: its duration minus what its
// child spans (and, for probe stages, the calls aggregated under it)
// cover.
type spanSelfTime struct {
	span
	SelfS float64 `json:"self_s"`
}

func withSelf(spans []span, agg []*aggSpan) []spanSelfTime {
	out := make([]spanSelfTime, len(spans))
	for i, s := range spans {
		self := spanSelf(spans, i)
		for _, a := range agg {
			if a.Parent == s.Name {
				self -= float64(a.Self) / 1e9
			}
		}
		out[i] = spanSelfTime{span: s, SelfS: self}
	}
	return out
}

func newTraceFile(w workload, seed int64, traced []passResult, pr *probeResult, m map[string]summary) traceFile {
	first := traced[0]
	cpuS := quantile(field(traced, func(p passResult) float64 { return p.CPUS }), 2)
	return traceFile{
		Workload:    w.name,
		Seed:        seed,
		Spans:       withSelf(first.Spans, nil),
		Counters:    first.Counters,
		ProbeSpans:  withSelf(pr.Spans, pr.Aggregated),
		Aggregated:  pr.Aggregated,
		Attribution: attributions(m, cpuS),
	}
}

func (t traceFile) write(dir string) (string, error) {
	path := filepath.Join(dir, "trace-"+t.Workload+".json")
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
