package experiments

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/groundlink"
)

// equivDownlink is a short sweep, still covering loss, a blackout, a
// reboot and a beacon window, sized for test time.
func equivDownlink(workers int) DownlinkCampaignConfig {
	c := DefaultDownlinkCampaignConfig()
	c.Mission = 2 * time.Minute
	c.Drain = 6 * time.Minute
	c.EventEvery = 5 * time.Second
	c.HousekeepingEvery = 2500 * time.Millisecond
	c.BulkEvery = time.Second
	c.LossRates = []float64{0.2}
	c.BlackoutDurations = []time.Duration{0, 30 * time.Second}
	c.PowerCycleAt = 70 * time.Second
	c.BeaconFrom = 30 * time.Second
	c.BeaconFor = 20 * time.Second
	c.Workers = workers
	return c
}

func TestDownlinkCampaignRecoversPriorityZero(t *testing.T) {
	trials, tbl, err := DownlinkCampaign(equivDownlink(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 6 {
		t.Fatalf("trials = %d, want 2 blackouts × 3 policies", len(trials))
	}
	for _, tr := range trials {
		if !tr.P0Recovered {
			t.Errorf("loss=%g blackout=%v policy=%v: lost priority-0 events (%d/%d)",
				tr.Loss, tr.Blackout, tr.Policy, tr.P0Delivered, tr.P0Enqueued)
		}
		if tr.Retransmits == 0 {
			t.Errorf("loss=%g blackout=%v policy=%v: a lossy arm that never retransmitted is not being stressed",
				tr.Loss, tr.Blackout, tr.Policy)
		}
		if tr.DrainedAt < 0 {
			t.Errorf("loss=%g blackout=%v policy=%v: backlog never drained", tr.Loss, tr.Blackout, tr.Policy)
		}
		if tr.CleanDrainedAt < 0 || (tr.DrainedAt >= 0 && tr.CleanDrainedAt > tr.DrainedAt) {
			t.Errorf("clean arm drained at %v, lossy at %v — impairments should never help",
				tr.CleanDrainedAt, tr.DrainedAt)
		}
		if tr.Beacons == 0 {
			t.Errorf("beacon window scheduled but no heartbeat sent")
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}

func TestDownlinkCampaignValidation(t *testing.T) {
	c := DefaultDownlinkCampaignConfig()
	c.Mission = 0
	if _, _, err := DownlinkCampaign(c); err == nil {
		t.Fatal("zero mission accepted")
	}
	c = DefaultDownlinkCampaignConfig()
	c.LossRates = nil
	if _, _, err := DownlinkCampaign(c); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestParallelEquivalenceDownlinkCampaign(t *testing.T) {
	assertWidthInvariant(t, func(workers int) (string, error) {
		_, tbl, err := DownlinkCampaign(equivDownlink(workers))
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	})
}

// TestDownlinkEndToEndGroundstation verifies the full chain the
// -downlink flag wires up: a simulated spacecraft (transmitter + lossy
// link) speaking over real TCP to the concurrent ground-station server
// that cmd/groundstation wraps. Every priority-0 event must survive
// drop, corruption and a blackout, end to end, with ACKs riding the
// same socket back.
func TestDownlinkEndToEndGroundstation(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	srv, err := groundlink.NewServer(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// ACKs come back on the same socket, read by a pump goroutine; the
	// simulation loop drains them into the link's up pipe each tick.
	var mu sync.Mutex
	var ackQueue [][]byte
	go func() {
		br := bufio.NewReader(conn)
		for {
			raw, err := downlink.ReadFrame(br, nil)
			if err != nil {
				return
			}
			mu.Lock()
			ackQueue = append(ackQueue, raw)
			mu.Unlock()
		}
	}()

	link, err := downlink.NewLink(downlink.LinkConfig{
		RateBps: 4096, AckRateBps: 1024, Latency: 50 * time.Millisecond, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.ScheduleLinkFault(downlink.LinkFault{Start: 0, Duration: 2 * time.Minute, Drop: 0.25, Corrupt: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := link.ScheduleBlackout(downlink.Blackout{Start: 40 * time.Second, Duration: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	tx, err := downlink.NewTransmitter(link, downlink.DefaultTxConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	const events = 30
	step := 100 * time.Millisecond
	var enqueued int
	deadline := 20 * time.Minute // simulated
	for now := step; now <= deadline; now += step {
		if enqueued < events && now >= time.Duration(enqueued+1)*2*time.Second {
			if err := tx.Enqueue(0, []byte(time.Duration(enqueued).String()), now); err != nil {
				t.Fatal(err)
			}
			enqueued++
		}
		if err := tx.Tick(now); err != nil {
			t.Fatal(err)
		}
		// Space→ground: frames surviving the lossy link go out over TCP.
		for _, raw := range link.RecvDown(now) {
			if _, err := conn.Write(raw); err != nil {
				t.Fatal(err)
			}
		}
		// Ground→space: ACKs the server produced ride the link's up pipe
		// (they are subject to the same impairments).
		mu.Lock()
		pending := ackQueue
		ackQueue = nil
		mu.Unlock()
		for _, ack := range pending {
			link.SendUp(ack, now)
		}
		if enqueued == events && tx.Done() {
			break
		}
		// Real TCP is in the loop: give the server a moment to answer so
		// the sim does not spin ahead of the socket.
		if now%(time.Second) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if !tx.Done() {
		t.Fatalf("backlog never drained: pending=%d stats=%+v link=%+v", tx.Pending(), tx.Stats(), link.Stats())
	}
	if got := st.Delivered(1, 0); got != events {
		t.Fatalf("ground delivered %d/%d priority-0 events", got, events)
	}
	if tx.Stats().Retransmits == 0 {
		t.Fatal("lossy end-to-end run never retransmitted — the link was not stressed")
	}
	if ls := link.Stats(); ls.Dropped == 0 || ls.BlackoutLost == 0 {
		t.Fatalf("impairments never fired: %+v", ls)
	}
}
