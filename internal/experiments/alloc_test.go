//go:build !race

// Allocation-regression tests for the campaigns' downlink payload path
// and Table 2's flight. Excluded under -race: race instrumentation
// allocates on its own.

package experiments

import (
	"fmt"
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

// TestAllocsDownlinkArm pins what one downlink arm allocates, warm-up
// included, at the campaign's defaults: a per-arm constant (the link
// with its frame slabs, the transmitter and its recorder, the ground
// station), not a cost per frame, per mangled frame or per minute of
// mission. It flies the clean arm and a 35%-loss arm with a five-minute
// blackout, each at a 10- and a 20-minute mission.
func TestAllocsDownlinkArm(t *testing.T) {
	const bound = 80
	sp := downlinkSpec{loss: 0.35, blackout: 5 * time.Minute, policy: downlink.PolicyPriority}
	for _, mission := range []time.Duration{10 * time.Minute, 20 * time.Minute} {
		c := DefaultDownlinkCampaignConfig()
		c.Mission = mission
		for _, lossy := range []bool{false, true} {
			name := fmt.Sprintf("%v mission, lossy %v", mission, lossy)
			var arm downlinkArm
			got := testing.AllocsPerRun(3, func() {
				var err error
				if arm, err = flyDownlinkArm(c, sp, c.Seed+4000, lossy); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f objects, %d/%d frames delivered, %d retransmitted", name, got, arm.del, arm.enq, arm.retx)
			if got > bound {
				t.Errorf("%s: one arm allocates %.0f objects, want at most %d", name, got, bound)
			}
			// The arm must fly the path the bound is about.
			if !lossy && (arm.del != arm.enq || arm.drainedAt < 0) {
				t.Errorf("%s: the clean arm delivered %d of %d frames, drained at %v", name, arm.del, arm.enq, arm.drainedAt)
			}
			if lossy && (arm.del == 0 || arm.retx == 0) {
				t.Errorf("%s: the lossy arm delivered %d frames and retransmitted %d", name, arm.del, arm.retx)
			}
		}
	}
}
