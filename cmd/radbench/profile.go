package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles creates the heap profile file memPath and begins CPU
// profiling into cpuPath (each when non-empty), so an unwritable path
// fails before the run. It returns a stop function that finishes the
// CPU profile and writes the heap profile. PERFORMANCE.md documents
// which campaigns to profile and how to read the output.
//
// Call stop exactly once, at the end of the run's success path. Error
// exits lose the profiles, which is acceptable for a measurement run —
// a campaign that fails is not the one being measured.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile, memFile *os.File
	if memPath != "" {
		if memFile, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
				err = fmt.Errorf("profiling: start CPU profile: %w", err)
			}
		}
		if err != nil {
			if memFile != nil {
				memFile.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memFile == nil {
			return nil
		}
		// Collect before snapshotting so the heap profile shows what
		// the campaign retains, not whatever garbage the last trial
		// left behind.
		runtime.GC()
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			memFile.Close()
			return fmt.Errorf("profiling: write heap profile: %w", err)
		}
		return memFile.Close()
	}, nil
}
