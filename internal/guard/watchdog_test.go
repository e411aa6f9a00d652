package guard

import (
	"bytes"
	"testing"
	"time"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/telemetry"
)

// The watchdog must satisfy the EMR runtime's watcher contract.
var _ emr.Watcher = (*Watchdog)(nil)

func newWatchdog(t *testing.T, cfg WatchdogConfig) *Watchdog {
	t.Helper()
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWatchdogConfigValidation(t *testing.T) {
	for _, mod := range []func(*WatchdogConfig){
		func(c *WatchdogConfig) { c.Deadline = -time.Second },
		func(c *WatchdogConfig) { c.MaxStrikes = 0 },
		func(c *WatchdogConfig) { c.RetryLimit = -1 },
		func(c *WatchdogConfig) { c.BackoffBase = 0 },
	} {
		cfg := DefaultWatchdogConfig()
		mod(&cfg)
		if _, err := NewWatchdog(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestWatchdogKillsHungVisit(t *testing.T) {
	cfg := DefaultWatchdogConfig()
	cfg.Deadline = 10 * time.Millisecond
	w := newWatchdog(t, cfg)
	charged, err := w.VisitDone(1, 0, 50*time.Millisecond, nil)
	if err == nil {
		t.Fatal("hung visit not killed")
	}
	if charged != cfg.Deadline {
		t.Fatalf("charged %v, want the deadline %v", charged, cfg.Deadline)
	}
	if w.Kills() != 1 || w.strikes[1] != 1 {
		t.Fatalf("kills = %d strikes = %d, want 1/1", w.Kills(), w.strikes[1])
	}
	// A visit inside the deadline passes through untouched.
	charged, err = w.VisitDone(0, 0, 5*time.Millisecond, nil)
	if err != nil || charged != 5*time.Millisecond {
		t.Fatalf("clean visit altered: %v, %v", charged, err)
	}
}

func TestCleanVisitClearsStreak(t *testing.T) {
	cfg := DefaultWatchdogConfig()
	cfg.Deadline = 10 * time.Millisecond
	cfg.MaxStrikes = 3
	w := newWatchdog(t, cfg)
	w.VisitDone(2, 0, time.Second, nil)
	w.VisitDone(2, 1, time.Second, nil)
	if w.strikes[2] != 2 {
		t.Fatalf("strikes = %d, want 2", w.strikes[2])
	}
	w.VisitDone(2, 2, time.Millisecond, nil)
	if w.strikes[2] != 0 {
		t.Fatalf("clean visit left strikes = %d", w.strikes[2])
	}
	if w.Mode() != RedundancyTMR {
		t.Fatalf("sporadic hangs demoted the mode to %v", w.Mode())
	}
}

func TestPersistentFailureDegradesTMRToDMRToSerial(t *testing.T) {
	cfg := DefaultWatchdogConfig()
	cfg.Deadline = 10 * time.Millisecond
	cfg.MaxStrikes = 3
	w := newWatchdog(t, cfg)

	for i := 0; i < 3; i++ {
		w.VisitDone(2, i, time.Second, nil) // hung core 2
	}
	if w.Mode() != RedundancyDMRChecksum {
		t.Fatalf("mode = %v after first bad core, want dmr_checksum", w.Mode())
	}
	plan := w.Plan()
	if plan.Scheme != fault.SchemeEMR || plan.Executors != 2 || !plan.ChecksumArbiter {
		t.Fatalf("DMR plan = %+v", plan)
	}
	if len(w.bad) != 1 || !w.bad[2] {
		t.Fatalf("bad executors = %v, want only 2", w.bad)
	}

	kill := bytes.ErrTooLarge // any sentinel error: a crashing replica
	for i := 0; i < 3; i++ {
		w.VisitDone(0, i, time.Millisecond, kill)
	}
	if w.Mode() != RedundancySerial {
		t.Fatalf("mode = %v after second bad core, want serial", w.Mode())
	}
	plan = w.Plan()
	if plan.Scheme != fault.SchemeSerial3MR || plan.ChecksumArbiter {
		t.Fatalf("serial plan = %+v", plan)
	}
	if w.Crashes() != 3 {
		t.Fatalf("Crashes = %d, want 3", w.Crashes())
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := DefaultWatchdogConfig()
	cfg.RetryLimit = 3
	cfg.BackoffBase = 10 * time.Millisecond
	w := newWatchdog(t, cfg)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for i, wd := range want {
		got, ok := w.Backoff(i)
		if !ok || got != wd {
			t.Fatalf("Backoff(%d) = %v/%v, want %v/true", i, got, ok, wd)
		}
	}
	if _, ok := w.Backoff(3); ok {
		t.Fatal("attempt past RetryLimit allowed")
	}
	if _, ok := w.Backoff(-1); ok {
		t.Fatal("negative attempt allowed")
	}
}

func TestWatchdogTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(64)
	ins := NewInstruments(reg)
	cfg := DefaultWatchdogConfig()
	cfg.Deadline = 10 * time.Millisecond
	cfg.MaxStrikes = 2
	w := newWatchdog(t, cfg)
	w.SetInstruments(ins)
	w.VisitDone(1, 0, time.Second, nil)
	w.VisitDone(1, 1, time.Second, nil)
	if ins.WatchdogKills.Value() != 2 || ins.WatchdogStrikes.Value() != 2 {
		t.Fatalf("kills/strikes = %d/%d, want 2/2", ins.WatchdogKills.Value(), ins.WatchdogStrikes.Value())
	}
	if got := ins.Redundancy.Value(); got != float64(RedundancyDMRChecksum) {
		t.Fatalf("guard_redundancy_mode = %v, want %v", got, float64(RedundancyDMRChecksum))
	}
	var kills, modes int
	for _, ev := range reg.Snapshot().Events {
		switch ev.Kind {
		case telemetry.KindReplicaKill:
			kills++
			if ev.Fields["cause"] != "hang" {
				t.Fatalf("kill cause = %v", ev.Fields["cause"])
			}
		case telemetry.KindRedundancyMode:
			modes++
			if ev.Fields["to"] != "dmr_checksum" {
				t.Fatalf("redundancy change to %v", ev.Fields["to"])
			}
		}
	}
	if kills != 2 || modes != 1 {
		t.Fatalf("events: %d kills, %d mode changes, want 2/1", kills, modes)
	}
}

// sumJob mirrors the EMR test workload: a tiny deterministic digest.
func sumJob(dst []byte, inputs [][]byte) ([]byte, error) {
	var sum uint32
	for _, in := range inputs {
		for _, b := range in {
			sum = sum*31 + uint32(b)
		}
	}
	return append(dst, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)), nil
}

// loadSpec stages n chunked datasets into rt.
func loadSpec(t *testing.T, rt *emr.Runtime, n, chunk int) emr.Spec {
	t.Helper()
	data := make([]byte, n*chunk)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	ref, err := rt.LoadInput("data", data)
	if err != nil {
		t.Fatal(err)
	}
	datasets := make([]emr.Dataset, n)
	for i := 0; i < n; i++ {
		s, err := ref.Slice(uint64(i*chunk), uint64(chunk))
		if err != nil {
			t.Fatal(err)
		}
		datasets[i] = emr.Dataset{Inputs: []emr.InputRef{s}}
	}
	return emr.Spec{Name: "guarded", Datasets: datasets, Job: sumJob, CyclesPerByte: 10}
}

// TestWatchdogGuardsEMRRuntime runs the full degradation loop: a core
// that hangs on every visit is killed each time, TMR still votes 2-of-3
// correct outputs, the watchdog declares the core bad, and the next run
// rebuilt from Plan() completes under DMR.
func TestWatchdogGuardsEMRRuntime(t *testing.T) {
	golden := func() [][]byte {
		cfg := emr.DefaultConfig()
		cfg.Scheme = fault.SchemeNone
		cfg.Executors = 1
		rt, err := emr.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(loadSpec(t, rt, 4, 128))
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}()

	wcfg := DefaultWatchdogConfig()
	wcfg.Deadline = 10 * time.Millisecond
	wcfg.MaxStrikes = 2
	w := newWatchdog(t, wcfg)

	cfg := emr.DefaultConfig()
	cfg.Watch = w
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, rt, 4, 128)
	spec.Hook = func(hp *emr.HookPoint) {
		if hp.Phase == emr.PhaseAfterRead && hp.Executor == 2 {
			hp.Stall = time.Second // livelocked core: hangs every visit
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if !bytes.Equal(res.Outputs[i], golden[i]) {
			t.Fatalf("dataset %d wrong with hung core", i)
		}
	}
	if w.Kills() != 4 {
		t.Fatalf("kills = %d, want 4 (every visit of core 2)", w.Kills())
	}
	if w.Mode() != RedundancyDMRChecksum {
		t.Fatalf("mode = %v, want dmr_checksum", w.Mode())
	}

	// Rebuild the runtime from the degraded plan and run clean.
	plan := w.Plan()
	cfg2 := emr.DefaultConfig()
	cfg2.Scheme = plan.Scheme
	cfg2.Executors = plan.Executors
	cfg2.Watch = w
	rt2, err := emr.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := rt2.Run(loadSpec(t, rt2, 4, 128))
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if !bytes.Equal(res2.Outputs[i], golden[i]) {
			t.Fatalf("dataset %d wrong under DMR", i)
		}
	}
}
