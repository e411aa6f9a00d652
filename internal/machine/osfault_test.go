package machine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/trace"
)

func TestScheduleOSFaultValidation(t *testing.T) {
	m := New(quietConfig())
	cases := []OSFault{
		{Kind: OSFaultNone},
		{Kind: OSFaultKind(99)},
		{Kind: OSFaultKernelHang, Start: -time.Second},
		{Kind: OSFaultIOErrorBurst, Duration: -time.Second, ErrorRate: 0.5},
		{Kind: OSFaultKernelPanic, Duration: time.Second},
		{Kind: OSFaultIOErrorBurst},                 // rate unset
		{Kind: OSFaultIOErrorBurst, ErrorRate: 1.5}, // rate out of range
		{Kind: OSFaultKernelPanic, ErrorRate: 0.5},  // rate on wrong kind
	}
	for i, f := range cases {
		if err := m.ScheduleOSFault(f); err == nil {
			t.Errorf("case %d: ScheduleOSFault(%+v) accepted, want error", i, f)
		}
	}
	valid := []OSFault{
		{Kind: OSFaultKernelPanic, Start: time.Second},
		{Kind: OSFaultKernelHang},
		{Kind: OSFaultIOErrorBurst, Duration: time.Second, ErrorRate: 1},
		{Kind: OSFaultSchedulerStall, Duration: time.Second},
		{Kind: OSFaultFSCorruption, Duration: time.Second},
	}
	for i, f := range valid {
		if err := m.ScheduleOSFault(f); err != nil {
			t.Errorf("case %d: valid fault rejected: %v", i, err)
		}
	}
	if n := len(m.osFaults); n != len(valid) {
		t.Fatalf("faults recorded = %d, want %d", n, len(valid))
	}
}

func TestParseOSFaultKind(t *testing.T) {
	want := map[string]OSFaultKind{
		"panic": OSFaultKernelPanic, "hang": OSFaultKernelHang,
		"ioburst": OSFaultIOErrorBurst, "schedstall": OSFaultSchedulerStall,
		"fscorrupt": OSFaultFSCorruption,
	}
	for id, kind := range want {
		got, err := ParseOSFaultKind(id)
		if err != nil || got != kind {
			t.Errorf("ParseOSFaultKind(%q) = %v, %v; want %v", id, got, err, kind)
		}
	}
	_, err := ParseOSFaultKind("kernel_panic")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), "panic, hang, ioburst, schedstall, fscorrupt") {
		t.Fatalf("error %q does not list the valid class ids", err)
	}
}

// TestKernelPanicWatchdogRevives pins the tentpole recovery path: a
// panicked board makes no core progress and stops petting the watchdog,
// so a configured hardware watchdog power cycles it back to life; the
// spent panic window does not re-trigger.
func TestKernelPanicWatchdogRevives(t *testing.T) {
	cfg := quietConfig()
	cfg.WatchdogTimeout = 20 * time.Millisecond
	m := New(cfg)
	if err := m.ScheduleOSFault(OSFault{Kind: OSFaultKernelPanic, Start: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}})

	var sawDead bool
	for i := 0; i < 60; i++ {
		wasDead := m.osActive[OSFaultKernelPanic]
		m.Step(time.Millisecond)
		tel := m.sampleNow()
		// Only intervals the board spent entirely dead must show zero
		// progress; the onset interval still covers live core time.
		if wasDead && m.osActive[OSFaultKernelPanic] {
			sawDead = true
			if tel.PerCore[0].InstrPerSec != 0 {
				t.Fatalf("dead kernel retired instructions: %g/s", tel.PerCore[0].InstrPerSec)
			}
		}
	}
	if !sawDead {
		t.Fatal("panic never took the board down")
	}
	if m.osActive[OSFaultKernelPanic] {
		t.Fatal("watchdog never revived the board")
	}
	if got := m.WatchdogResets(); got != 1 {
		t.Fatalf("WatchdogResets = %d, want 1", got)
	}
	if got := m.PowerCycles(); got != 1 {
		t.Fatalf("PowerCycles = %d, want 1", got)
	}
}

// TestKernelPanicHoldsWithoutWatchdog is the bare-board contrast: with
// WatchdogTimeout zero (no watchdog fitted) a panic holds forever.
func TestKernelPanicHoldsWithoutWatchdog(t *testing.T) {
	m := New(quietConfig())
	if err := m.ScheduleOSFault(OSFault{Kind: OSFaultKernelPanic}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Step(time.Millisecond)
	}
	if !m.osActive[OSFaultKernelPanic] {
		t.Fatal("panic cleared without a power cycle")
	}
	if m.WatchdogResets() != 0 {
		t.Fatal("an unfitted watchdog fired")
	}
	m.PowerCycle()
	m.Step(time.Millisecond)
	if m.osActive[OSFaultKernelPanic] {
		t.Fatal("commanded power cycle did not clear the panic")
	}
}

// TestKernelHangLatchesReadings pins the wedged-syscall surface: under a
// hang the board keeps sampling but counters and sensor reads repeat
// their last latched values exactly.
func TestKernelHangLatchesReadings(t *testing.T) {
	cfg := DefaultConfig() // noise on: identical draws would be a 0-probability event
	cfg.SensorSeed = 17
	m := New(cfg)
	if err := m.ScheduleOSFault(OSFault{Kind: OSFaultKernelHang, Start: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}})

	m.Step(4 * time.Millisecond)
	healthy := m.sampleNow()
	if healthy.TotalInstrPerSec() == 0 {
		t.Fatal("healthy board shows no progress")
	}
	m.Step(2 * time.Millisecond)
	hungA := m.sampleNow()
	m.Step(time.Millisecond)
	hungB := m.sampleNow()
	if !m.KernelHung() {
		t.Fatal("hang window not active")
	}
	if hungA.TotalInstrPerSec() != 0 || hungB.TotalInstrPerSec() != 0 {
		t.Fatalf("hung kernel reports progress: %g, %g",
			hungA.TotalInstrPerSec(), hungB.TotalInstrPerSec())
	}
	if hungA.CurrentA != hungB.CurrentA || hungA.RawA != hungB.RawA {
		t.Fatalf("hung sensor reads differ: %v/%v vs %v/%v",
			hungA.CurrentA, hungA.RawA, hungB.CurrentA, hungB.RawA)
	}
}

// TestSupplyTripSurvivesKernelHang pins the analog-comparator contract
// for OS faults: a wedged kernel latches the *digital* sensor reads, but
// the supply's over-current circuit is wired to the shunt and still
// clears an ampere-scale latchup.
func TestSupplyTripSurvivesKernelHang(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorSeed = 23
	m := newTripCounted(cfg)
	if err := m.ScheduleOSFault(OSFault{Kind: OSFaultKernelHang}); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSEL(5.0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	m.RunTrace(trace.Quiescent(rng, 2*time.Second, time.Second), nil)
	if m.ins.supplyTrips.Value() == 0 {
		t.Fatal("supply never tripped: analog path blinded by a hung kernel")
	}
}

func TestIOCheckWindowedAndDeterministic(t *testing.T) {
	run := func() (before, during, after int) {
		cfg := quietConfig()
		cfg.SensorSeed = 31
		m := New(cfg)
		if err := m.ScheduleOSFault(OSFault{
			Kind: OSFaultIOErrorBurst, Start: 10 * time.Millisecond,
			Duration: 10 * time.Millisecond, ErrorRate: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		count := func(n int) int {
			fails := 0
			for i := 0; i < n; i++ {
				if err := m.IOCheck("probe"); err != nil {
					if !errors.Is(err, ErrIO) {
						t.Fatalf("IOCheck error %v does not wrap ErrIO", err)
					}
					fails++
				}
			}
			return fails
		}
		before = count(50)
		m.Step(15 * time.Millisecond)
		during = count(50)
		m.Step(15 * time.Millisecond)
		after = count(50)
		return
	}
	b1, d1, a1 := run()
	b2, d2, a2 := run()
	if b1 != 0 || a1 != 0 {
		t.Fatalf("IO errors outside the burst window: before=%d after=%d", b1, a1)
	}
	if d1 == 0 || d1 == 50 {
		t.Fatalf("in-window failure count %d/50 not consistent with rate 0.5", d1)
	}
	if b1 != b2 || d1 != d2 || a1 != a2 {
		t.Fatalf("IO-error stream not deterministic: (%d,%d,%d) vs (%d,%d,%d)", b1, d1, a1, b2, d2, a2)
	}
	if m := New(quietConfig()); m.IOCheck("idle") != nil {
		t.Fatal("IOCheck failed with no faults scheduled")
	}
}

// TestWatchdogNeverFiresHealthy: the pet thread runs whenever the kernel
// is alive, so a fitted watchdog must be inert on a healthy board even
// with other (non-kernel) fault windows open.
func TestWatchdogNeverFiresHealthy(t *testing.T) {
	cfg := quietConfig()
	cfg.WatchdogTimeout = 5 * time.Millisecond
	m := New(cfg)
	if err := m.ScheduleOSFault(OSFault{
		Kind: OSFaultFSCorruption, Start: time.Millisecond, Duration: 40 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Step(time.Millisecond)
		m.sampleNow()
	}
	if m.WatchdogResets() != 0 {
		t.Fatalf("watchdog fired %d times on a live kernel", m.WatchdogResets())
	}
}
