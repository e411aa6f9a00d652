package experiments

import (
	"fmt"
	"strings"
	"testing"

	"radshield/internal/fault"
)

func quickSEU() SEUConfig { return SEUConfig{Size: 64 << 10, Seed: 42} }

func TestFig11ShapeMatchesPaper(t *testing.T) {
	rows, tbl, err := Fig11(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 workloads", len(rows))
	}
	for _, r := range rows {
		// EMR always beats serial 3-MR and always costs something over
		// the unprotected bound (paper: 7–77% slowdown).
		if r.EMRRel >= r.Serial3MRRel {
			t.Errorf("%s: EMR (%.2f) not faster than serial 3-MR (%.2f)", r.Workload, r.EMRRel, r.Serial3MRRel)
		}
		if r.EMRRel < 1.0 {
			t.Errorf("%s: EMR (%.2f) beat the unprotected bound — accounting bug", r.Workload, r.EMRRel)
		}
		if r.EMRRel > 2.6 {
			t.Errorf("%s: EMR rel %.2f far above the paper's band", r.Workload, r.EMRRel)
		}
		if r.Serial3MRRel < 2.0 {
			t.Errorf("%s: serial 3-MR rel %.2f, want ≈3", r.Workload, r.Serial3MRRel)
		}
	}
}

func TestFig12CrossFrontierShape(t *testing.T) {
	fig, err := Fig12(42, 0, []int{64 << 10, 256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", fig)
	get := func(name string) Series {
		for _, s := range fig.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("series %q missing", name)
		return Series{}
	}
	emrD, mrD := get("EMR/dram"), get("3MR/dram")
	emrS, mrS := get("EMR/disk"), get("3MR/disk")
	for i := range emrD.X {
		// 3-MR consistently slower than EMR on both frontiers.
		if mrD.Y[i] <= emrD.Y[i] {
			t.Errorf("dram size %g: 3MR %.4g ≤ EMR %.4g", emrD.X[i], mrD.Y[i], emrD.Y[i])
		}
		if mrS.Y[i] <= emrS.Y[i] {
			t.Errorf("disk size %g: 3MR %.4g ≤ EMR %.4g", emrS.X[i], mrS.Y[i], emrS.Y[i])
		}
		// Disk frontier slower than DRAM frontier.
		if emrS.Y[i] <= emrD.Y[i] {
			t.Errorf("size %g: disk EMR %.4g ≤ dram EMR %.4g", emrD.X[i], emrS.Y[i], emrD.Y[i])
		}
	}
	// The runtime gap grows with input size.
	gapSmall := mrD.Y[0] - emrD.Y[0]
	gapLarge := mrD.Y[len(mrD.Y)-1] - emrD.Y[len(emrD.Y)-1]
	if gapLarge <= gapSmall {
		t.Errorf("3MR−EMR gap did not grow with size: %.4g → %.4g", gapSmall, gapLarge)
	}
}

func TestFig13SweetSpot(t *testing.T) {
	points, tbl, err := Fig13(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	byWorkload := map[string][]Fig13Point{}
	for _, p := range points {
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for name, ps := range byWorkload {
		// Points are ordered by descending threshold: 2.0 (no
		// replication), 0.5, 0.01 (shared block), 0.0 (everything).
		none, shared, all := ps[0], ps[2], ps[3]
		if !(none.ReplicaFrac == 0 && shared.ReplicaFrac > 0 && all.ReplicaFrac > shared.ReplicaFrac) {
			t.Errorf("%s: replica fractions not monotone: %v %v %v",
				name, none.ReplicaFrac, shared.ReplicaFrac, all.ReplicaFrac)
		}
		// The shared-block sweet spot beats no replication on runtime.
		if shared.RuntimeSec >= none.RuntimeSec {
			t.Errorf("%s: sweet spot (%.4f s) not faster than no replication (%.4f s)",
				name, shared.RuntimeSec, none.RuntimeSec)
		}
		// Full replication costs the most memory.
		if all.PeakMemBytes <= shared.PeakMemBytes {
			t.Errorf("%s: full replication memory %d ≤ sweet spot %d",
				name, all.PeakMemBytes, shared.PeakMemBytes)
		}
	}
}

func TestTable4MatchesPaperExactly(t *testing.T) {
	tbl := Table4()
	t.Logf("\n%s", tbl)
	want := [][2]string{
		{"None", "0.00%"},
		{"Unprotected parallel 3-MR", "75.00%"},
		{"3-MR", "100.00%"},
		{"EMR", "100.00%"},
	}
	for i, w := range want {
		if tbl.Rows[i][0] != w[0] || tbl.Rows[i][1] != w[1] {
			t.Errorf("row %d = %v, want %v", i, tbl.Rows[i], w)
		}
	}
}

func TestTable6Breakdown(t *testing.T) {
	res, err := Table6(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Tbl)
	// Paper Table 6: EMR total ≈ 40% of 3-MR; serial reads disk 3×;
	// compute dominates both.
	ratio := res.EMR.Makespan.Seconds() / res.Serial.Makespan.Seconds()
	if ratio < 0.25 || ratio > 0.75 {
		t.Errorf("EMR/3MR total = %.2f, want ≈0.4", ratio)
	}
	if res.Serial.DiskReadTime.Seconds() < 2.5*res.EMR.DiskReadTime.Seconds() {
		t.Errorf("serial disk %.4g not ≈3× EMR %.4g",
			res.Serial.DiskReadTime.Seconds(), res.EMR.DiskReadTime.Seconds())
	}
	if res.Serial.ComputeTime < res.Serial.FlushTime {
		t.Error("serial compute does not dominate flush")
	}
	if frac := res.EMR.ComputeTime.Seconds() / res.EMR.Makespan.Seconds(); frac < 0.7 {
		t.Errorf("EMR compute fraction %.2f, want dominant (paper: 96%%)", frac)
	}
}

func TestFig14EnergyShape(t *testing.T) {
	rows, tbl, err := Fig14(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	savings := 0
	for _, r := range rows {
		// Radshield adds only a sliver over EMR (ILD is cheap).
		if r.RadshieldRel < r.EMRRel || r.RadshieldRel > r.EMRRel*1.1 {
			t.Errorf("%s: Radshield %.2f vs EMR %.2f — ILD overhead should be marginal", r.Workload, r.RadshieldRel, r.EMRRel)
		}
		if r.EMRRel < r.Serial3MRRel {
			savings++
		}
	}
	// EMR saves energy on most workloads (the paper's DNN is the
	// conflict-heavy exception).
	if savings < 3 {
		t.Errorf("EMR beat serial 3-MR energy on only %d of 5 workloads", savings)
	}
}

func TestTable7NoSDCUnderProtection(t *testing.T) {
	cfg := DefaultTable7Config()
	cfg.Runs = 12
	cfg.Size = 32 << 10
	tallies, tbl, err := Table7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, name := range []string{"3-MR", "EMR", "EMR + MBU"} {
		if got := tallies[name].Counts[fault.SDC]; got != 0 {
			t.Errorf("%s: %d SDCs, want 0 (paper Table 7)", name, got)
		}
		runs := 0
		for _, n := range tallies[name].Counts {
			runs += n
		}
		if runs != cfg.Runs {
			t.Errorf("%s: %d runs recorded", name, runs)
		}
	}
	// Unprotected runs must show silent corruption (the reason Radshield
	// exists).
	if tallies["None"].Counts[fault.SDC] == 0 {
		t.Error("no SDCs under no protection — injection too weak")
	}
	// Protected schemes actively correct some faults.
	if tallies["EMR"].Counts[fault.Corrected] == 0 {
		t.Error("EMR corrected nothing")
	}
}

// TestTable7RejectsNoRuns requires a campaign of fewer than one run per
// scheme to fail before it probes the result store or runs the golden
// pass.
func TestTable7RejectsNoRuns(t *testing.T) {
	store := openCacheStore(t, t.TempDir())
	defer closeCacheStore(t, store)
	for _, runs := range []int{0, -1} {
		cfg := DefaultTable7Config()
		cfg.Runs = runs
		cfg.Cache = store
		want := fmt.Sprintf("Runs = %d", runs)
		if _, tbl, err := Table7(cfg); err == nil || !strings.Contains(err.Error(), want) || tbl != nil {
			t.Errorf("Runs %d: table %v, err %v, want no table and an error naming %q", runs, tbl, err, want)
		}
		if st := store.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("Runs %d: the campaign probed the result store (%d lookups) before failing", runs, st.Hits+st.Misses)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	tbl := Table8()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestWindowOfVulnerabilityBelowOne(t *testing.T) {
	wov, err := WindowOfVulnerability(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	// Paper §4.2.6: ≈0.8 — EMR is struck less often than serial 3-MR
	// despite using twice the die area.
	if wov <= 0 || wov >= 1.2 {
		t.Fatalf("window of vulnerability = %.2f, want < ≈1 (paper: 0.8)", wov)
	}
}

func TestAblationScheduling(t *testing.T) {
	tbl, err := AblationScheduling(quickSEU())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}
