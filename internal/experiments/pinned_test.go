package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Pinned flight-campaign output. The width- and cache-equivalence
// tests compare a build with itself; these tables, committed under
// testdata/, hold each flight campaign's rendered output fixed across
// commits, so a refactor of the flight loops that moves any cell fails
// here. Rewrite them with
//
//	go test ./internal/experiments -run TestPinnedFlightCampaigns -update
//
// only for a change that is meant to move the numbers, and say so in
// the change description.
var updatePinned = flag.Bool("update", false, "rewrite the pinned campaign tables and result-cache wire golden under testdata/")

// pinnedMission flies missions long enough to reach the first payload
// contact (every 3 h), at a rate boost that also lands latchups in
// them, so the pinned table covers the EMR payload path as well as the
// latchup path.
func pinnedMission() MissionConfig {
	c := DefaultMissionConfig()
	c.Missions = 3
	c.RateBoost = 6000
	c.Duration = 3*time.Hour + 10*time.Minute
	c.Workers = 2
	return c
}

var pinnedCampaigns = []struct {
	name string
	run  func() (*Table, error)
}{
	{"guard", func() (*Table, error) {
		_, tbl, err := GuardCampaign(equivGuard(2))
		return tbl, err
	}},
	{"watchdog", func() (*Table, error) {
		c := DefaultWatchdogCampaignConfig()
		c.Workers = 2
		_, tbl, err := WatchdogCampaign(c)
		return tbl, err
	}},
	{"oskernel", func() (*Table, error) {
		_, tbl, err := OSFaultCampaign(equivOSFault(2))
		return tbl, err
	}},
	{"adaptive", func() (*Table, error) {
		_, tbl, err := AdaptiveCampaign(equivAdaptive(2))
		return tbl, err
	}},
	{"downlink", func() (*Table, error) {
		_, tbl, err := DownlinkCampaign(equivDownlink(2))
		return tbl, err
	}},
	{"mission", func() (*Table, error) {
		_, _, tbl, err := MissionSurvival(pinnedMission())
		return tbl, err
	}},
}

func TestPinnedFlightCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("long flight campaigns")
	}
	for _, pc := range pinnedCampaigns {
		t.Run(pc.name, func(t *testing.T) {
			tbl, err := pc.run()
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.String()
			path := filepath.Join("testdata", "pinned_"+pc.name+".txt")
			if *updatePinned {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read pinned table (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table differs from %s\n--- got ---\n%s\n--- want ---\n%s", pc.name, path, got, want)
			}
		})
	}
}
