package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles begins CPU profiling into cpuPath (when non-empty) and
// returns a stop function that finishes the CPU profile and writes a
// heap profile to memPath (when non-empty). PERFORMANCE.md documents
// which campaigns to profile and how to read the output.
//
// Call stop exactly once, at the end of the run's success path. Error
// exits lose the profiles, which is acceptable for a measurement run —
// a campaign that fails is not the one being measured.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		// Collect before snapshotting so the heap profile shows what
		// the campaign retains, not whatever garbage the last trial
		// left behind.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("profiling: write heap profile: %w", err)
		}
		return nil
	}, nil
}
