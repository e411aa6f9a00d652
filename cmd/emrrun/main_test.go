package main

import (
	"math"
	"strings"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want fault.Scheme
	}{
		{"emr", fault.SchemeEMR},
		{"EMR", fault.SchemeEMR},
		{"3mr", fault.SchemeSerial3MR},
		{"serial", fault.SchemeSerial3MR},
		{"serial3mr", fault.SchemeSerial3MR},
		{"unprotected", fault.SchemeUnprotectedParallel},
		{"parallel", fault.SchemeUnprotectedParallel},
		{"none", fault.SchemeNone},
		{"checksum", fault.SchemeChecksum},
		{"Checksum", fault.SchemeChecksum},
	}
	for _, c := range cases {
		got, err := parseScheme(c.in)
		if err != nil {
			t.Errorf("parseScheme(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseScheme(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if got, err := parseScheme("tmr"); err == nil {
		t.Errorf("parseScheme(%q) = %v, want an error", "tmr", got)
	}
}

// checkFlags rejects every value emrrun cannot run before it builds a
// runtime; an empty want means the flags pass.
func TestCheckFlags(t *testing.T) {
	good := func() runFlags {
		return runFlags{workload: "encryption", scheme: "emr", frontier: "dram", size: 256 << 10, threshold: 0.01}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*runFlags)
		want   string
	}{
		{"defaults", func(*runFlags) {}, ""},
		{"smallest size", func(f *runFlags) { f.size = 1 }, ""},
		{"replicate all", func(f *runFlags) { f.threshold = 0 }, ""},
		{"replication off", func(f *runFlags) { f.threshold = math.Inf(1) }, ""},
		{"zero size", func(f *runFlags) { f.size = 0 }, "-size 0,"},
		{"negative size", func(f *runFlags) { f.size = -1 }, "-size -1,"},
		{"NaN threshold", func(f *runFlags) { f.threshold = math.NaN() }, "-replication-threshold NaN,"},
		{"negative threshold", func(f *runFlags) { f.threshold = -0.5 }, "-replication-threshold -0.5,"},
		{"unknown workload", func(f *runFlags) { f.workload = "raytracing" }, `workloads: unknown workload "raytracing"`},
		{"unknown scheme", func(f *runFlags) { f.scheme = "tmr" }, `unknown scheme "tmr"`},
		{"unknown frontier", func(f *runFlags) { f.frontier = "tape" }, `unknown frontier "tape"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := good()
			tc.mutate(&f)
			_, _, _, err := checkFlags(f)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v, want none", err)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one starting %q", err, tc.want)
			}
		})
	}
	b, sch, fr, err := checkFlags(runFlags{workload: "dnn", scheme: "checksum", frontier: "storage", size: 1, threshold: 2})
	if err != nil || b.Name != "dnn" || sch != fault.SchemeChecksum || fr != emr.FrontierStorage {
		t.Fatalf("checkFlags = %q, %v, %v, %v; want dnn, checksum, storage", b.Name, sch, fr, err)
	}
}
