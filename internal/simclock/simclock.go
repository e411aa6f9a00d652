package simclock

import (
	"fmt"
	"time"
)

// Clock is a manually-advanced time source: the simulated offset since
// run start. The zero value is ready to use and starts at instant zero.
//
// A Clock is not safe for concurrent use. It belongs to the one
// goroutine that runs its simulation: each machine holds its own clock,
// and parallel campaign arms each fly their own machine. The race
// detector run (make race) checks that no clock is shared.
type Clock struct {
	now time.Duration
}

// Now reports the current simulated instant as an offset from simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves simulated time forward by d and returns the new
// simulated instant. Advance panics if d is negative: the simulation may
// never move backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		//radlint:allow nopanic simulated time may never move backwards; continuing would corrupt every run
		panic(fmt.Sprintf("simclock: Advance(%v): negative duration", d))
	}
	c.now += d
	return c.now
}
