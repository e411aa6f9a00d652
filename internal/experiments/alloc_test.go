//go:build !race

// Allocation-regression test for the campaigns' downlink payload path.
// Excluded under -race: race instrumentation allocates on its own.

package experiments

import (
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
