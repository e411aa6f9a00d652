// Command bench is the repository's benchmark: it runs the Radshield
// reproduction's campaigns as four workloads and reports what they cost
// the host end to end, what they model, and, in a separate traced run,
// what each layer costs. See README.md for the workloads and metrics.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload sel-detect --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -seed 1                  # a set: every workload, 5 repetitions, then traced
//	bash bench/run.sh -compare A.json B.json   # verdicts per workload and metric
//	bash bench/run.sh -write-golden            # regenerate bench/golden.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// goldenSeeds are the seeds bench/golden.txt covers.
const goldenSeeds = 21 // 0 … 20

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "child" {
		if err := runChild(args[1:], stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result as the last line (default: every workload, untraced and traced)")
	seed := fs.Int64("seed", 1, "input seed; campaign seeds derive from it")
	seconds := fs.Float64("seconds", 0, "timed phase of one workload run (default: run_seconds of BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	reps := fs.Int("reps", 0, "least repetitions of each untraced cold workload, even past -seconds; a warm repetition is 100 replays (default: 1 with -workload, 5 for a set)")
	compare := fs.Bool("compare", false, "compare two records given as arguments")
	writeGolden := fs.Bool("write-golden", false, "recompute bench/golden.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	goldenPath := filepath.Join("bench", "golden.txt")

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files"))
		}
		a, err := readRecord(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readRecord(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compareRecords(stdout, spec, a, b) {
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *writeGolden {
		if err := writeGoldens(exe, goldenPath); err != nil {
			return fail(err)
		}
		return 0
	}
	gs, err := loadGoldens(goldenPath)
	if err != nil {
		return fail(err)
	}
	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *reps <= 0 {
		*reps = 1
		if *name == "" {
			*reps = 5
		}
	}
	r := &runner{exe: exe, seed: *seed, seconds: *seconds, reps: *reps, replays: *reps * 100, outDir: outDir, goldens: gs, spec: spec}
	rec := record{Provenance: hostProvenance(*seed, *seconds)}

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		jobs = append(jobs, job{w, *traceFlag == 1})
	} else {
		for _, traced := range []bool{false, true} {
			for _, w := range workloadList {
				jobs = append(jobs, job{w, traced})
			}
		}
	}
	for _, j := range jobs {
		res, tf, err := r.run(j.w, j.traced)
		if err != nil {
			return fail(err)
		}
		rec.Results = append(rec.Results, res)
		report(stderr, res)
		if j.traced {
			path, err := tf.write(outDir)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "  trace: %s\n", path)
		}
	}

	label := "set"
	if *name != "" {
		label = fmt.Sprintf("%s-trace%d", *name, *traceFlag)
	}
	path := filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-%s.json", label, *seed, time.Now().UTC().Format("20060102T150405")))
	if err := writeJSON(path, rec); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "record: %s\n", path)
	if *name != "" {
		if err := emitResult(stdout, rec.Results[0]); err != nil {
			return fail(err)
		}
	}
	return 0
}

// emitResult prints the one-line result: correctness, operation counts
// and each metric's median with its unit.
func emitResult(w io.Writer, res workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		out.Metrics[name] = value{s.Median, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints every metric of a workload run by name, with its unit.
func report(w io.Writer, res workloadResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s (%s): correct=%v attempted=%d failed=%d\n", res.Workload, kind, res.Correct, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, group := range []map[string]summary{res.Metrics, res.Diagnostics} {
		for _, name := range sortedKeys(group) {
			s := group[name]
			fmt.Fprintf(w, "  %-34s %12.6g %-9s [q1 %.6g, q3 %.6g, n %d]\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	for _, name := range sortedKeys(res.Modelled) {
		fmt.Fprintf(w, "  modelled %-25s %12.6g\n", name, res.Modelled[name])
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeGoldens runs every cold workload at full size for each golden
// seed, one child process per pass, and writes the table hashes. A warm
// replay renders the same tables as the cold flight-ops pass, so it
// shares flight-ops' hashes.
func writeGoldens(exe, path string) error {
	r := &runner{exe: exe}
	var b strings.Builder
	b.WriteString("# <seed> <campaign> <sha256 of the rendered table>, from `bash bench/run.sh -write-golden`\n")
	for seed := int64(0); seed < goldenSeeds; seed++ {
		for _, w := range workloadList {
			if w.warm {
				continue
			}
			rep, _, err := r.child(childArgs{phase: "rep", workload: w, seed: seed})
			if err != nil {
				return err
			}
			for _, c := range rep.Passes[0].Calls {
				if c.Err != "" {
					return fmt.Errorf("seed %d %s: %s", seed, c.Name, c.Err)
				}
				fmt.Fprintf(&b, "%d %s %s\n", seed, c.Name, c.Hash)
			}
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
