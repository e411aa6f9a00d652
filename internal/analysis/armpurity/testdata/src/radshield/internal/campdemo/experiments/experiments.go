// Package experiments is the armpurity fixture entry-point package:
// exported *Campaign functions are checked transitively, with the
// impurities living two packages below in campdemo/leaf.
package experiments

import (
	"radshield/internal/campdemo/mid"
	"radshield/internal/sched"
)

// Config is the (config, seed) tuple a campaign must be a function of.
type Config struct {
	Steps int
	Seed  int64
}

// DemoCampaign reaches time.Now through mid.Sim → leaf.Tick — neither
// this package nor mid contains the impurity.
func DemoCampaign(cfg Config) int64 {
	return mid.Sim(cfg.Steps) // want `campaign entry point DemoCampaign must be a pure function of \(config, seed\): time\.Now \(wall-clock read\) via mid\.Sim → leaf\.Tick`
}

// CounterCampaign reaches a package-state write through mid.Count →
// leaf.Bump.
func CounterCampaign(cfg Config) int {
	mid.Count() // want `campaign entry point CounterCampaign must be a pure function of \(config, seed\): package-level variable leaf\.runs \(write of package-level state\) via mid\.Count → leaf\.Bump`
	return cfg.Steps
}

// CleanCampaign is the sanctioned shape: everything flows from the
// explicit config and seed, randomness is injected, package reads are
// provably immutable. No finding.
func CleanCampaign(cfg Config) float64 {
	return mid.Pure(cfg.Seed)
}

// JobsCampaign submits a deterministic job to the scheduler. No
// finding: seeded randomness and immutable reads are the contract.
func JobsCampaign(cfg Config) ([]float64, error) {
	return sched.Map(cfg.Steps, 1, func(i int) (float64, error) {
		return mid.Pure(cfg.Seed + int64(i)), nil
	})
}

// helperCampaign is unexported: not an entry point, not checked.
func helperCampaign() int64 {
	return mid.Sim(1)
}

// WallJob submits a wall-clock-tainted job to the scheduler; the
// finding lands at the taint's entry into the job body.
func WallJob() {
	_, _ = sched.Map(4, 1, func(i int) (int64, error) {
		return mid.Sim(i), nil // want `job function literal passed to sched\.Map must be deterministic: time\.Now \(wall-clock read\) via mid\.Sim → leaf\.Tick`
	})
}

// CaptureJob writes a captured variable from concurrent trials — a
// race and an ordering dependence at once.
func CaptureJob() {
	total := 0
	_, _ = sched.Map(4, 1, func(i int) (int, error) {
		total += i // want `job function literal passed to sched\.Map must be deterministic: captured variable total \(write to captured variable\)`
		return total, nil
	})
}

// DynamicJob cannot be proven: the job is a function-typed parameter.
func DynamicJob(fn func(int) (int, error)) {
	_, _ = sched.Map(4, 1, fn) // want `job passed to sched\.Map is not statically resolvable: pass a func literal or named function so determinism can be proven`
}
