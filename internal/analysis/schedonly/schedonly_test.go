package schedonly_test

import (
	"testing"

	"radshield/internal/analysis/radlint/radlinttest"
	"radshield/internal/analysis/schedonly"
)

func TestSchedOnly(t *testing.T) {
	radlinttest.Run(t, radlinttest.TestData(t), schedonly.Analyzer,
		"radshield/internal/godemo",
		"radshield/internal/downlink",
		"radshield/internal/telemetry",
		"radshield/cmd/gotool",
	)
}

// TestSanctionedPackagesClean proves the negative fixtures: goroutines
// inside the sanctioned concurrency boundaries produce no findings.
func TestSanctionedPackagesClean(t *testing.T) {
	radlinttest.Run(t, radlinttest.TestData(t), schedonly.Analyzer,
		"radshield/internal/sched",
		"radshield/internal/groundlink",
		"radshield/cmd/groundstation",
	)
}
