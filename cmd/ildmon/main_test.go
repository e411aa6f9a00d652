package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"radshield/internal/power"
)

// checkFlags rejects every value ildmon cannot fly before training; an
// empty want means the flags pass.
func TestCheckFlags(t *testing.T) {
	good := func() missionFlags {
		return missionFlags{
			hours: 2, selAmps: 0.07,
			selAt: 45 * time.Minute, report: 5 * time.Minute, faultAt: 30 * time.Minute,
			sensorFault: "none", linkID: 1,
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*missionFlags)
		want   string
	}{
		{"defaults", func(*missionFlags) {}, ""},
		{"strike at launch", func(f *missionFlags) { f.selAt, f.faultAt = 0, 0 }, ""},
		{"sensor fault for a while", func(f *missionFlags) { f.sensorFault, f.faultFor = "stuck", 15*time.Minute }, ""},
		{"dump without a sensor fault", func(f *missionFlags) { f.dump = "ring.csv" }, ""},
		{"negative hours", func(f *missionFlags) { f.hours = -1 }, "-hours -1,"},
		{"zero hours", func(f *missionFlags) { f.hours = 0 }, "-hours 0,"},
		{"hours past time.Duration", func(f *missionFlags) { f.hours = 1e12 }, "-hours 1e+12,"},
		{"NaN hours", func(f *missionFlags) { f.hours = math.NaN() }, "-hours NaN,"},
		{"negative sel-amps", func(f *missionFlags) { f.selAmps = -1 }, "-sel-amps -1,"},
		{"zero sel-amps", func(f *missionFlags) { f.selAmps = 0 }, "-sel-amps 0,"},
		{"NaN sel-amps", func(f *missionFlags) { f.selAmps = math.NaN() }, "-sel-amps NaN,"},
		{"infinite sel-amps", func(f *missionFlags) { f.selAmps = math.Inf(1) }, "-sel-amps +Inf,"},
		{"zero report", func(f *missionFlags) { f.report = 0 }, "-report 0s,"},
		{"negative report", func(f *missionFlags) { f.report = -time.Minute }, "-report -1m0s,"},
		{"negative sel-at", func(f *missionFlags) { f.selAt = -time.Second }, "-sel-at -1s,"},
		{"negative fault-at", func(f *missionFlags) { f.faultAt = -time.Second }, "-fault-at -1s,"},
		{"negative fault-for", func(f *missionFlags) { f.faultFor = -5 * time.Minute }, "-fault-for -5m0s,"},
		{"unknown sensor fault", func(f *missionFlags) { f.sensorFault = "melted" }, `unknown sensor fault "melted"`},
		{"NaN offset fault", func(f *missionFlags) { f.sensorFault, f.faultOffset = "offset", math.NaN() }, "-fault-offset NaN,"},
		{"dump with a sensor fault", func(f *missionFlags) { f.sensorFault, f.dump = "stuck", "ring.csv" },
			"-dump is unavailable with -sensor-fault"},
		{"link id 0 without downlink", func(f *missionFlags) { f.linkID = 0 }, ""},
		{"link id with downlink", func(f *missionFlags) { f.downlink, f.linkID = "127.0.0.1:7007", 65535 }, ""},
		{"link id 0 with downlink", func(f *missionFlags) { f.downlink, f.linkID = "127.0.0.1:7007", 0 },
			"downlink: link id 0 out of range"},
		{"link id -1 with downlink", func(f *missionFlags) { f.downlink, f.linkID = "127.0.0.1:7007", -1 },
			"downlink: link id -1 out of range"},
		{"link id 65536 with downlink", func(f *missionFlags) { f.downlink, f.linkID = "127.0.0.1:7007", 65536 },
			"downlink: link id 65536 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := good()
			tc.mutate(&f)
			kind, err := checkFlags(f)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v, want none", err)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one starting %q", err, tc.want)
			case tc.want != "" && kind != power.FaultNone:
				t.Fatalf("kind = %v on a rejected flag, want none", kind)
			}
		})
	}
	if kind, err := checkFlags(missionFlags{hours: 1, selAmps: 0.07, report: time.Minute, sensorFault: "offset"}); err != nil || kind != power.FaultOffset {
		t.Fatalf("-sensor-fault offset = %v, %v; want %v", kind, err, power.FaultOffset)
	}
}
