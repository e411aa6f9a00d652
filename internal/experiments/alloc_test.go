//go:build !race

// Allocation-regression tests for the campaigns' downlink payload path
// and Table 2's flight. Excluded under -race: race instrumentation
// allocates on its own.

package experiments

import (
	"runtime"
	"testing"
	"time"

	"radshield/internal/downlink"
)

// TestAllocsCommsPayload pins the payload path the downlink and
// adaptive campaigns run every 100 ms of flight, in steady state on one
// comms over a clean link: bulk builds and enqueues each due science
// frame in place, an event payload ("<key> t=<now>") is built and
// enqueued on channel 0, and tick runs the ARQ and the ground pass.
func TestAllocsCommsPayload(t *testing.T) {
	lcfg := downlink.DefaultLinkConfig()
	lcfg.Seed = 3
	link, err := lossyLink(lcfg, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := newComms(link, downlink.DefaultTxConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var now, next time.Duration
	step := func() {
		now += 100 * time.Millisecond
		next = cm.bulk(next, 50*time.Millisecond, now)
		cm.payload = append(append(cm.payload[:0], "hk t="...), now.String()...)
		cm.enqueue(0, now)
		if err := cm.tick(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // fill the recorder's free lists and the station ring
		step()
	}
	enq, p0 := cm.enq, cm.p0Enq
	delivered, _, _ := cm.totals()
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("steady-state payload enqueue and comms tick allocate %.3f objects, want 0", avg)
	}
	// The measured steps must exercise the whole path.
	if cm.enq-enq <= cm.p0Enq-p0 {
		t.Error("bulk enqueued no science frame")
	}
	if cm.p0Enq == p0 {
		t.Error("no channel-0 payload enqueued")
	}
	if d, _, _ := cm.totals(); d == delivered {
		t.Error("the station received no frame")
	}
}

// table2GrowthBound caps how many more bytes Table 2 may allocate for a
// 2 h flight than for a 30 min one. Its monitors' state grows only per
// episode, so the difference is the longer flight trace (under 1 MB)
// and noise; a campaign that kept every 10 ms sample (224 B each, about
// 81 MB per flight hour) would exceed it by far.
const table2GrowthBound = 16 << 20

// TestAllocsTable2FlightLength holds Table 2's memory to what its
// monitors keep, not to its flight length: the bytes it allocates at
// 2 h exceed those at 30 min by less than table2GrowthBound. It reads
// the process-wide MemStats, so it must not run in parallel.
func TestAllocsTable2FlightLength(t *testing.T) {
	alloc := func(d time.Duration) uint64 {
		c := DefaultSELConfig()
		c.Duration = d
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := Table2(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(30*time.Minute), alloc(2*time.Hour)
	t.Logf("Table 2 allocates %.1f MB at 30 min, %.1f MB at 2 h", float64(short)/1e6, float64(long)/1e6)
	if long > short+table2GrowthBound {
		t.Errorf("Table 2 allocates %.1f MB more at 2 h than at 30 min, want under %d MB",
			float64(long-short)/1e6, table2GrowthBound>>20)
	}
}

// TestAllocsWatchdogJob checks that the watchdog campaign's job, whose
// output is all it allocates, allocates nothing into a dst with room.
func TestAllocsWatchdogJob(t *testing.T) {
	in := [][]byte{[]byte("watchdog chunk zero")}
	dst := make([]byte, 0, 4)
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := watchdogJob(dst, in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("watchdogJob allocates %v objects into a dst with room, want 0", avg)
	}
}

// TestAllocsTableString pins a table's rendering at two objects, its
// column widths and its bytes: its strings.Builder grows once to the
// rendered length, and no cell goes through fmt.
func TestAllocsTableString(t *testing.T) {
	for _, tbl := range renderCases {
		if got := testing.AllocsPerRun(20, func() { _ = tbl.String() }); got > 2 {
			t.Errorf("rendering table %q allocates %.0f objects, want at most 2", tbl.Title, got)
		}
	}
}
