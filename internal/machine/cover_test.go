package machine

import (
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/trace"
)

func TestAccessors(t *testing.T) {
	m := New(DefaultConfig())
	if m.Sensor() == nil {
		t.Fatal("Sensor accessor")
	}
}

func TestClearSELLeavesCountersAlone(t *testing.T) {
	m := New(DefaultConfig())
	m.ApplySegment(trace.Segment{Duration: time.Second, Loads: []cpu.Load{cpu.ComputeLoad}})
	m.InjectSEL(0.07)
	m.Step(time.Second)
	before := m.cores[0].Counters()
	if before.Instructions == 0 {
		t.Fatal("busy core counted no instructions")
	}
	m.ClearSEL()
	if m.SELActive() {
		t.Fatal("ClearSEL did not clear")
	}
	if m.PowerCycles() != 0 {
		t.Fatal("ClearSEL counted as a power cycle")
	}
	if got := m.cores[0].Counters(); got != before {
		t.Fatal("ClearSEL disturbed counters")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterK = 0
	m := New(cfg)
	if m.cfg.FilterK != 1 {
		t.Fatalf("FilterK default = %d, want 1", m.cfg.FilterK)
	}
}

func TestNewRejectsZeroSampleInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleEvery=0 accepted")
		}
	}()
	cfg := DefaultConfig()
	cfg.SampleEvery = 0
	New(cfg)
}

func TestClampF(t *testing.T) {
	if clampF(5, 1, 10) != 5 || clampF(0, 1, 10) != 1 || clampF(20, 1, 10) != 10 {
		t.Fatal("clampF")
	}
}
