package experiments

import (
	"fmt"
	"strconv"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/telemetry"
)

// Downlink campaign: the comms subsystem under radio stress. Every
// trial flies the same telemetry-producing mission twice — once over a
// lossy link (drop/corrupt/reorder plus a loss-of-contact blackout) and
// once over a clean link with the same seed — and measures what the
// ARQ machinery recovers: the paper's protection story only matters if
// the evidence reaches the ground.

// DownlinkCampaignConfig parameterizes the loss × blackout × policy
// sweep.
type DownlinkCampaignConfig struct {
	// Mission is the on-orbit segment generating telemetry; Drain is the
	// post-mission contact extension in which ARQ may finish; Step is
	// the simulation tick.
	Mission time.Duration
	Drain   time.Duration
	Step    time.Duration

	// Cadences for the three traffic classes: priority-0 events (vc0),
	// housekeeping (vc1), bulk science (vc3). Zero disables a class.
	EventEvery        time.Duration
	HousekeepingEvery time.Duration
	BulkEvery         time.Duration

	// The sweep grid. LossRate r maps to drop r, corrupt r/2, reorder
	// r/4, active for the whole trial (drain included). Blackout 0 means
	// no loss-of-contact window; otherwise one blackout of the given
	// length opens at Mission/3.
	LossRates         []float64
	BlackoutDurations []time.Duration
	Policies          []downlink.Policy

	// Link is the radio operating point; its Seed is overridden per
	// trial so paired arms share one and distinct trials do not.
	Link downlink.LinkConfig
	// Window / RTO / RingCap override the transmitter defaults (zero
	// keeps the default).
	Window  int
	RTO     time.Duration
	RingCap int

	// PowerCycleAt reboots the flight side mid-mission (volatile ARQ
	// state lost, flight recorder kept); 0 disables.
	PowerCycleAt time.Duration
	// BeaconFrom/BeaconFor simulate a guard-supervisor step-down window
	// during which the transmitter degrades to beacon mode; BeaconFor 0
	// disables. (ildmon wires the real supervisor callback; the campaign
	// schedules the window so its cost is measured deterministically.)
	BeaconFrom time.Duration
	BeaconFor  time.Duration

	Seed    int64
	Workers int
	// Telemetry, when non-nil, receives the campaign scheduler's
	// sched_* metrics.
	Telemetry *telemetry.Registry
	// Cache, when non-nil, replays trials whose inputs match a prior
	// run (see internal/resultcache). Must never change results.
	Cache *resultcache.Store
}

// DefaultDownlinkCampaignConfig sweeps light, heavy and severe loss,
// with no blackout, a two-minute and a five-minute blackout, across all
// three service policies, on a 10-minute mission with a mid-mission
// reboot and a 90-second guard step-down window.
func DefaultDownlinkCampaignConfig() DownlinkCampaignConfig {
	return DownlinkCampaignConfig{
		Mission:           10 * time.Minute,
		Drain:             10 * time.Minute,
		Step:              100 * time.Millisecond,
		EventEvery:        10 * time.Second,
		HousekeepingEvery: 5 * time.Second,
		BulkEvery:         2 * time.Second,
		LossRates:         []float64{0.05, 0.2, 0.35},
		BlackoutDurations: []time.Duration{0, 2 * time.Minute, 5 * time.Minute},
		Policies:          []downlink.Policy{downlink.PolicyPriority, downlink.PolicyRoundRobin, downlink.PolicyFIFO},
		Link:              downlink.DefaultLinkConfig(),
		PowerCycleAt:      6 * time.Minute,
		BeaconFrom:        4 * time.Minute,
		BeaconFor:         90 * time.Second,
		Seed:              17,
	}
}

// DownlinkTrial is one paired sweep point.
type DownlinkTrial struct {
	Loss     float64
	Blackout time.Duration
	Policy   downlink.Policy

	// Lossy arm.
	P0Enqueued  uint64
	P0Delivered uint64
	Enqueued    uint64
	Delivered   uint64
	Retransmits uint64
	Timeouts    uint64
	Evicted     uint64
	Skipped     uint64
	Beacons     uint64
	DrainedAt   time.Duration // -1: backlog never fully acknowledged

	// Clean arm (same seed, no impairments).
	CleanDelivered uint64
	CleanDrainedAt time.Duration

	// P0Recovered is the campaign's verdict: every priority-0 event
	// enqueued on the lossy arm was delivered, in order, after ARQ.
	P0Recovered bool
}

// downlinkSpec is one grid point.
type downlinkSpec struct {
	loss     float64
	blackout time.Duration
	policy   downlink.Policy
}

// downlinkArm is one arm's raw tallies.
type downlinkArm struct {
	p0Enq, p0Del  uint64
	enq, del      uint64
	retx, timeout uint64
	evicted       uint64
	skipped       uint64
	beacons       uint64
	drainedAt     time.Duration
}

// DownlinkCampaign sweeps the grid and renders the comparison table.
// Trials fan out across the campaign scheduler; output is
// byte-identical at any worker width.
func DownlinkCampaign(c DownlinkCampaignConfig) ([]DownlinkTrial, *Table, error) {
	if c.Mission <= 0 || c.Step <= 0 || c.Drain < 0 {
		return nil, nil, fmt.Errorf("experiments: downlink campaign needs Mission and Step > 0, Drain ≥ 0")
	}
	var specs []downlinkSpec
	for _, loss := range c.LossRates {
		for _, b := range c.BlackoutDurations {
			for _, p := range c.Policies {
				specs = append(specs, downlinkSpec{loss: loss, blackout: b, policy: p})
			}
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty downlink sweep grid")
	}

	// The trial seed derives from the grid index, so the index is part
	// of each arm's identity: reordering the grid recomputes, by design.
	cache := cacheArms(c.Cache, "downlink/v1", len(specs),
		func(i int, e *resultcache.Enc) {
			encDownlinkCampaignConfig(e, c)
			sp := specs[i]
			e.Float(sp.loss)
			e.Duration(sp.blackout)
			e.Int(int64(sp.policy))
			e.Int(int64(i))
		},
		armCodec[DownlinkTrial]{enc: encDownlinkTrial, dec: decDownlinkTrial})

	trials, err := sched.Map(len(specs), c.Workers, func(i int) (DownlinkTrial, error) {
		return cache.CachedArm(i, func() (DownlinkTrial, error) {
			sp := specs[i]
			seed := c.Seed + 4000 + int64(i)*37
			lossy, err := flyDownlinkArm(c, sp, seed, true)
			if err != nil {
				return DownlinkTrial{}, err
			}
			clean, err := flyDownlinkArm(c, sp, seed, false)
			if err != nil {
				return DownlinkTrial{}, err
			}
			return DownlinkTrial{
				Loss: sp.loss, Blackout: sp.blackout, Policy: sp.policy,
				P0Enqueued: lossy.p0Enq, P0Delivered: lossy.p0Del,
				Enqueued: lossy.enq, Delivered: lossy.del,
				Retransmits: lossy.retx, Timeouts: lossy.timeout,
				Evicted: lossy.evicted, Skipped: lossy.skipped,
				Beacons: lossy.beacons, DrainedAt: lossy.drainedAt,
				CleanDelivered: clean.del, CleanDrainedAt: clean.drainedAt,
				P0Recovered: lossy.p0Del == lossy.p0Enq && lossy.p0Enq > 0,
			}, nil
		})
	}, sched.WithTelemetry(c.Telemetry))
	if err != nil {
		return nil, nil, err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Downlink campaign: %v mission + %v drain, %d B/s down, reboot@%v, beacon %v+%v",
			c.Mission, c.Drain, c.Link.RateBps, c.PowerCycleAt, c.BeaconFrom, c.BeaconFor),
		Header: []string{"Loss", "Blackout", "Policy", "p0 d/e", "all d/e", "Retx", "Timeouts",
			"Evicted", "Skipped", "Beacons", "Drained@", "Clean@", "p0 recovered"},
	}
	for _, tr := range trials {
		blk := "none"
		if tr.Blackout > 0 {
			blk = tr.Blackout.String()
		}
		drained := func(d time.Duration) string {
			if d < 0 {
				return "never"
			}
			return d.Round(c.Step).String()
		}
		verdict := "YES"
		if !tr.P0Recovered {
			verdict = "LOST DATA"
		}
		tbl.AddRow(fmt.Sprintf("%g", tr.Loss), blk, tr.Policy.String(),
			fmt.Sprintf("%d/%d", tr.P0Delivered, tr.P0Enqueued),
			fmt.Sprintf("%d/%d", tr.Delivered, tr.Enqueued),
			fmt.Sprint(tr.Retransmits), fmt.Sprint(tr.Timeouts),
			fmt.Sprint(tr.Evicted), fmt.Sprint(tr.Skipped), fmt.Sprint(tr.Beacons),
			drained(tr.DrainedAt), drained(tr.CleanDrainedAt), verdict)
	}
	return trials, tbl, nil
}

// encDownlinkCampaignConfig canonically encodes every campaign
// parameter a trial's result depends on. Workers, Telemetry and Cache
// are deliberately absent; the sweep grid slices are absent too because
// each arm's own grid point (and index) is encoded separately.
func encDownlinkCampaignConfig(e *resultcache.Enc, c DownlinkCampaignConfig) {
	e.Duration(c.Mission)
	e.Duration(c.Drain)
	e.Duration(c.Step)
	e.Duration(c.EventEvery)
	e.Duration(c.HousekeepingEvery)
	e.Duration(c.BulkEvery)
	e.Int(int64(c.Link.RateBps))
	e.Int(int64(c.Link.AckRateBps))
	e.Duration(c.Link.Latency)
	e.Int(int64(c.Window))
	e.Duration(c.RTO)
	e.Int(int64(c.RingCap))
	e.Duration(c.PowerCycleAt)
	e.Duration(c.BeaconFrom)
	e.Duration(c.BeaconFor)
	e.Int(c.Seed)
}

func encDownlinkTrial(e *resultcache.Enc, t DownlinkTrial) {
	e.Float(t.Loss)
	e.Duration(t.Blackout)
	e.Int(int64(t.Policy))
	e.Uint(t.P0Enqueued)
	e.Uint(t.P0Delivered)
	e.Uint(t.Enqueued)
	e.Uint(t.Delivered)
	e.Uint(t.Retransmits)
	e.Uint(t.Timeouts)
	e.Uint(t.Evicted)
	e.Uint(t.Skipped)
	e.Uint(t.Beacons)
	e.Duration(t.DrainedAt)
	e.Uint(t.CleanDelivered)
	e.Duration(t.CleanDrainedAt)
	e.Bool(t.P0Recovered)
}

func decDownlinkTrial(d *resultcache.Dec) DownlinkTrial {
	return DownlinkTrial{
		Loss:           d.Float(),
		Blackout:       d.Duration(),
		Policy:         downlink.Policy(d.Int()),
		P0Enqueued:     d.Uint(),
		P0Delivered:    d.Uint(),
		Enqueued:       d.Uint(),
		Delivered:      d.Uint(),
		Retransmits:    d.Uint(),
		Timeouts:       d.Uint(),
		Evicted:        d.Uint(),
		Skipped:        d.Uint(),
		Beacons:        d.Uint(),
		DrainedAt:      d.Duration(),
		CleanDelivered: d.Uint(),
		CleanDrainedAt: d.Duration(),
		P0Recovered:    d.Bool(),
	}
}

// flyDownlinkArm flies one arm: the flight side enqueues the three
// telemetry classes on their cadences, reboots and degrades on
// schedule, and the ARQ loop runs against the (possibly impaired) link
// until the backlog is acknowledged or time runs out. The two arms of a
// trial differ only in link impairments.
func flyDownlinkArm(c DownlinkCampaignConfig, sp downlinkSpec, seed int64, lossy bool) (downlinkArm, error) {
	arm := downlinkArm{drainedAt: -1}

	lcfg := c.Link
	lcfg.Seed = seed
	loss, blackout := 0.0, time.Duration(0)
	if lossy {
		loss, blackout = sp.loss, sp.blackout
	}
	link, err := lossyLink(lcfg, loss, c.Mission/3, blackout)
	if err != nil {
		return arm, err
	}
	tcfg := downlink.DefaultTxConfig(1)
	tcfg.Policy = sp.policy
	if c.Window > 0 {
		tcfg.Window = c.Window
	}
	if c.RTO > 0 {
		tcfg.RTO = c.RTO
	}
	if c.RingCap > 0 {
		tcfg.RingCap = c.RingCap
	}
	cm, err := newComms(link, tcfg)
	if err != nil {
		return arm, err
	}

	nextEvent, nextHk, nextBulk := c.EventEvery, c.HousekeepingEvery, c.BulkEvery
	cycled := false
	end := c.Mission + c.Drain
	for now := c.Step; now <= end; now += c.Step {
		if now <= c.Mission {
			for c.EventEvery > 0 && nextEvent <= now {
				cm.payload = strconv.AppendUint(append(cm.payload[:0], "evt seq="...), cm.p0Enq, 10)
				cm.payload = appendDuration(append(cm.payload, " t="...), nextEvent)
				cm.enqueue(0, now)
				nextEvent += c.EventEvery
			}
			for c.HousekeepingEvery > 0 && nextHk <= now {
				cm.payload = appendDuration(append(cm.payload[:0], "hk t="...), nextHk)
				cm.payload = append(cm.payload, " mode=nominal"...)
				cm.enqueue(1, now)
				nextHk += c.HousekeepingEvery
			}
			nextBulk = cm.bulk(nextBulk, c.BulkEvery, now)
		}
		if c.PowerCycleAt > 0 && !cycled && now >= c.PowerCycleAt {
			cm.tx.PowerCycle(now)
			cycled = true
		}
		if c.BeaconFor > 0 {
			inBeacon := now >= c.BeaconFrom && now < c.BeaconFrom+c.BeaconFor
			if inBeacon != cm.tx.Beacon() {
				reason := "guard_stepdown"
				if !inBeacon {
					reason = "recovered"
				}
				cm.tx.SetBeacon(inBeacon, now, reason)
			}
		}
		if err := cm.tick(now); err != nil {
			return arm, err
		}
		if now > c.Mission && cm.tx.Done() {
			arm.drainedAt = now
			break
		}
	}

	stats := cm.tx.Stats()
	arm.retx = stats.Retransmits
	arm.timeout = stats.Timeouts
	arm.beacons = stats.Beacons
	arm.evicted = cm.tx.Evicted()
	arm.enq, arm.p0Enq = cm.enq, cm.p0Enq
	arm.del, arm.skipped, arm.p0Del = cm.totals()
	return arm, nil
}
