package simclocktime_test

import (
	"testing"

	"radshield/internal/analysis/radlint/radlinttest"
	"radshield/internal/analysis/simclocktime"
)

func TestSimclockTime(t *testing.T) {
	radlinttest.Run(t, radlinttest.TestData(t), simclocktime.Analyzer,
		"radshield/internal/adaptdemo",
		"radshield/internal/demo",
		"radshield/internal/downlinkdemo",
		"radshield/internal/guarddemo",
		"radshield/pkg/free",
	)
}
