package simclock

import (
	"testing"
	"time"
)

func TestZeroValueStartsAtZero(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	var c Clock
	c.Advance(3 * time.Second)
	if got := c.Advance(250 * time.Millisecond); got != 3250*time.Millisecond {
		t.Fatalf("Advance returned %v, want 3.25s", got)
	}
	if got, want := c.Now(), 3250*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	new(Clock).Advance(-time.Second)
}
