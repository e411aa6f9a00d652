package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric catalog, which is the single source of names, units,
// directions and bounds.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// summary is one metric over a run's samples. Quartiles follow Python's
// statistics.quantiles(values, n=4), so spreads read the same in both.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quantile(values, 1), quantile(values, 2), quantile(values, 3)
	return s
}

// quantile is the i-th quartile cut by the exclusive method; one value
// is its own quartiles and no values give 0.
func quantile(values []float64, i int) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0
	case 1:
		return d[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (d[j-1]*(4-delta) + d[j]*delta) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// provenance says where and how a record was measured.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	MemTotalMB float64 `json:"mem_total_mb"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func hostProvenance(seed int64, seconds float64) provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Seconds:    seconds,
		GitSHA:     "unknown",
	}
	p.CPUModel = procField("/proc/cpuinfo", "model name")
	if f := strings.Fields(procField("/proc/meminfo", "MemTotal")); len(f) > 0 {
		kb, _ := strconv.ParseFloat(f[0], 64) // "<n> kB"; unparsable reads as 0
		p.MemTotalMB = kb * 1024 / 1e6
	}
	// A checkout without git history has no sha; the record says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return p
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when it is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// workloadResult is one workload run: the end-to-end metrics (untraced)
// or the per-layer metrics (traced), with everything behind them.
type workloadResult struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
	Diagnostics map[string]summary `json:"diagnostics"`
	Modelled    map[string]float64 `json:"modelled"`
}

// record is what one invocation writes to bench/out.
type record struct {
	Provenance provenance       `json:"provenance"`
	Results    []workloadResult `json:"results"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// goldens maps seed → campaign → SHA-256 of the rendered table.
type goldens map[int64]map[string]string

func loadGoldens(path string) (goldens, error) {
	g := goldens{}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		seed, err := strconv.ParseInt(fields[0], 10, 64)
		if len(fields) != 3 || err != nil {
			return nil, fmt.Errorf("%s:%d: want \"<seed> <campaign> <sha256>\"", path, line)
		}
		if g[seed] == nil {
			g[seed] = map[string]string{}
		}
		g[seed][fields[1]] = fields[2]
	}
	return g, sc.Err()
}

// verdict compares one metric of two records the way a change is judged
// against its parent: a is the parent, b the change.
func verdict(m metricSpec, a, b summary) string {
	sign := 1.0 // positive deltas are regressions
	if m.Better == "higher" {
		sign = -1
	}
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	worse := sign * (b.Median - a.Median) / math.Abs(a.Median)
	var wins, losses, pairs int
	for _, x := range a.Values {
		for _, y := range b.Values {
			pairs++
			switch d := sign * (y - x); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	switch {
	case a.Median == 0:
		if b.Median == 0 {
			return "ok"
		}
		return "unresolved"
	case a.spread() > bound || b.spread() > bound:
		// The runs scatter wider than the bound: only a clean separation
		// decides.
		if wins == pairs {
			return "better"
		}
		if losses == pairs && worse > bound {
			return "worse"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(b.Median-a.Median) > a.Q3-a.Q1:
		return "better"
	}
	return "ok"
}

// compareRecords prints a verdict for every (workload, end-to-end
// metric) pair and every modelled result the two records share, and
// reports whether any got worse or changed. Diagnostics have no bound:
// their medians and quartiles are shown without a verdict.
func compareRecords(w io.Writer, spec benchSpec, a, b record) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-16s %32s %32s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, ra := range a.Results {
		rb, ok := findResult(b, ra.Workload, ra.Traced)
		if !ok || ra.Traced {
			continue
		}
		if !rb.Correct {
			regressed = true
			fmt.Fprintf(w, "%-12s %-16s %32v %32v  %s\n", ra.Workload, "correct", ra.Correct, rb.Correct, "worse")
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			regressed = regressed || v == "worse"
			fmt.Fprintf(w, "%-12s %-16s %32s %32s  %s\n", ra.Workload, m.Name, cell(sa), cell(sb), v)
		}
		for _, name := range sortedKeys(ra.Diagnostics) {
			if sb, ok := rb.Diagnostics[name]; ok {
				fmt.Fprintf(w, "%-12s %-16s %32s %32s  -\n", ra.Workload, name, cell(ra.Diagnostics[name]), cell(sb))
			}
		}
		for _, name := range sortedKeys(ra.Modelled) {
			x, y := ra.Modelled[name], rb.Modelled[name]
			v := "ok"
			if x != y {
				v, regressed = "changed", true
			}
			fmt.Fprintf(w, "%-12s %-16s %32g %32g  %s\n", ra.Workload, name, x, y, v)
		}
	}
	return regressed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func findResult(r record, workload string, traced bool) (workloadResult, bool) {
	for _, res := range r.Results {
		if res.Workload == workload && res.Traced == traced {
			return res, true
		}
	}
	return workloadResult{}, false
}

func cell(s summary) string {
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", s.Median, s.Unit, s.Q1, s.Q3)
}
