package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner starts children with os.Executable, which here is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func testRunner(t *testing.T) *runner {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A tiny budget still takes the minimum repetitions of each kind.
	return &runner{exe: exe, seed: 3, seconds: 0.01, toy: true, outDir: t.TempDir(), spec: spec}
}

// Every workload, untraced and traced, at toy sizes: each run is correct
// and reports every metric BENCHMARK.json names, with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	r := testRunner(t)
	for _, traced := range []bool{false, true} {
		for _, w := range workloadList {
			res, tf, err := r.run(w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			specs := r.spec.EndToEnd
			if traced {
				specs = r.spec.PerLayer
				if len(tf.Spans) == 0 || len(tf.Aggregated) == 0 || len(tf.Attribution) == 0 {
					t.Errorf("%s: trace file lacks spans, probe calls or attribution", w.name)
				}
				if c := res.Metrics["trace.coverage"].Median; c < 0.95 {
					t.Errorf("%s: trace.coverage %.3f < 0.95", w.name, c)
				}
			}
			var out bytes.Buffer
			if err := emitResult(&out, res); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			checkResultLine(t, w.name, out.String(), specs)
		}
	}
}

// checkResultLine parses the one-line result and checks its metrics
// against the spec.
func checkResultLine(t *testing.T, name, line string, specs []metricSpec) {
	t.Helper()
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("%s: result line %q: %v", name, line, err)
	}
	if len(got.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(got.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, v, m.Unit)
		}
	}
}

// A table whose hash differs from the seed's golden is a failed
// operation; so is a warm replay that missed the store; seeds without
// goldens compare every pass with the first.
func TestCheckCountsFailedOps(t *testing.T) {
	const good, bad = "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"
	cold, _ := findWorkload("sel-detect")
	warm, _ := findWorkload("warm-replay")
	passOf := func(hash string) passResult {
		return passResult{Calls: []callResult{{Name: "table2", Hash: hash}}}
	}
	r := &runner{seed: 1, goldens: goldens{1: {"table2": good}}}
	if att, failed, _ := r.check(cold, nil, []passResult{passOf(good), passOf(good)}); att != 2 || failed != 0 {
		t.Errorf("matching goldens: attempted %d failed %d, want 2 0", att, failed)
	}
	tampered := &runner{seed: 1, goldens: goldens{1: {"table2": bad}}}
	if _, failed, why := tampered.check(cold, nil, []passResult{passOf(good), passOf(good)}); failed != 2 {
		t.Errorf("tampered golden: failed %d, want 2 (%v)", failed, why)
	}
	noGolden := &runner{seed: 9, goldens: goldens{1: {"table2": good}}}
	if _, failed, _ := noGolden.check(cold, nil, []passResult{passOf(good), passOf(bad), passOf(good)}); failed != 1 {
		t.Errorf("unseeded drift: failed %d, want 1", failed)
	}
	missed := passOf(good)
	missed.Misses = 1
	att, failed, why := r.check(warm, []passResult{passOf(good)}, []passResult{passOf(good), missed})
	if att != 3 || failed != 1 || !strings.Contains(why[0], "misses") {
		t.Errorf("warm replay with a miss: attempted %d failed %d %v, want 3 1", att, failed, why)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quantile(v, 1), quantile(v, 2), quantile(v, 3); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q := quantile([]float64{4}, 1); q != 4 {
		t.Errorf("single value quartile %v, want 4", q)
	}
}

func TestVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "hits", Better: "higher", Bound: &bound}
	s := func(vs ...float64) summary { return summarize("s", vs) }
	base := s(1.00, 1.01, 0.99, 1.00, 1.02, 0.98)
	cases := []struct {
		name string
		m    metricSpec
		b    summary
		want string
	}{
		{"same", lower, s(1.00, 1.01, 0.99, 1.01, 1.00, 0.99), "ok"},
		{"slower past the bound", lower, s(1.20, 1.21, 1.19, 1.20, 1.22, 1.18), "worse"},
		{"slower within the bound", lower, s(1.05, 1.06, 1.04, 1.05, 1.06, 1.04), "ok"},
		{"clearly faster", lower, s(0.80, 0.81, 0.79, 0.80, 0.82, 0.78), "better"},
		{"scattered", lower, s(0.5, 1.5, 0.7, 1.3, 1.0, 0.9), "unresolved"},
		{"higher is better", higher, s(1.20, 1.21, 1.19, 1.20, 1.22, 1.18), "better"},
	}
	for _, c := range cases {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// compareRecords fails on a regression and on a changed modelled result.
func TestCompareRecords(t *testing.T) {
	bound := 0.1
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "allocs_m", Unit: "Mobjects", Better: "lower", Bound: &bound}}}
	rec := func(m float64, modelled float64) record {
		return record{Results: []workloadResult{{
			Workload: "sel-detect", Correct: true,
			Metrics: map[string]summary{"allocs_m": summarize("Mobjects", []float64{m, m, m})},
			// Host time is shown but never fails a comparison.
			Diagnostics: map[string]summary{"wall_s": summarize("s", []float64{m, m, m})},
			Modelled:    map[string]float64{"ild_fnr": modelled},
		}}}
	}
	var out bytes.Buffer
	if compareRecords(&out, spec, rec(1, 0), rec(1, 0)) {
		t.Errorf("identical records regressed:\n%s", out.String())
	}
	slower := rec(1, 0)
	slower.Results[0].Diagnostics["wall_s"] = summarize("s", []float64{2, 2, 2})
	out.Reset()
	if compareRecords(&out, spec, rec(1, 0), slower) || !strings.Contains(out.String(), "wall_s") {
		t.Errorf("a slower diagnostic failed the comparison or went unshown:\n%s", out.String())
	}
	if !compareRecords(&out, spec, rec(1, 0), rec(2, 0)) {
		t.Errorf("doubled allocation count not reported")
	}
	if !compareRecords(&out, spec, rec(1, 0), rec(1, 0.5)) {
		t.Errorf("changed modelled result not reported")
	}
}
