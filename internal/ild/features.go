package ild

import (
	"radshield/internal/machine"
)

// FeatureNames returns human-readable labels for the feature vector of a
// machine with n cores, for reports and feature-importance tables.
func FeatureNames(cores int) []string {
	var names []string
	for i := 0; i < cores; i++ {
		prefix := "core" + string(rune('0'+i)) + "."
		names = append(names,
			prefix+"instr_per_sec",
			prefix+"bus_cycles_per_sec",
			prefix+"freq_hz",
			prefix+"branch_miss_rate",
			prefix+"cache_hit_rate",
		)
	}
	return append(names, "disk_reads_per_sec", "disk_writes_per_sec")
}

// FeaturesPerCore is the number of per-core metrics in the vector.
const FeaturesPerCore = 5

// extraFeatures is the number of board-wide metrics (disk read, disk
// write).
const extraFeatures = 2

// FeatureDim returns the feature-vector length for a core count.
func FeatureDim(cores int) int { return cores*FeaturesPerCore + extraFeatures }

// AppendFeatures appends the feature vector for tel to dst and returns
// the extended slice. The detector's per-sample hot path reuses one
// scratch buffer through this (`d.feat = AppendFeatures(d.feat[:0], tel)`)
// so feature extraction allocates nothing after the first sample.
func AppendFeatures(dst []float64, tel machine.Telemetry) []float64 {
	for _, c := range tel.PerCore {
		dst = append(dst,
			c.InstrPerSec/1e9,
			c.BusCyclesPerSec/1e9,
			c.FreqHz/1e9,
			c.BranchMissRate,
			c.CacheHitRate,
		)
	}
	return append(dst, tel.DiskReadPerSec/1e3, tel.DiskWritePerSec/1e3)
}
