package sched_test

import (
	"fmt"

	"radshield/internal/sched"
)

// ExampleMap shows the scheduler's central promise: trials fan out
// across workers, but the returned slice — and any error — is identical
// to a serial loop at every worker count, so campaign output never
// depends on scheduling.
func ExampleMap() {
	squares, err := sched.Map(6, 3, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		fmt.Println("campaign failed:", err)
		return
	}
	fmt.Println(squares)
	// Output: [0 1 4 9 16 25]
}
