package experiments

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The downlink and adaptive campaigns' payloads, and through them the
// campaign goldens, carry durations as time.Duration.String formats
// them; appendDuration must keep producing exactly those bytes.

func checkAppendDuration(t *testing.T, d time.Duration) {
	t.Helper()
	prefix := append(make([]byte, 0, 64), "t="...)
	got := appendDuration(prefix, d)
	if want := "t=" + d.String(); string(got) != want {
		t.Fatalf("appendDuration(%d) = %q, want %q", int64(d), got, want)
	}
}

func TestAppendDuration(t *testing.T) {
	for _, d := range []time.Duration{
		0, 1, -1,
		time.Microsecond - 1, time.Microsecond, time.Microsecond + 1,
		time.Millisecond - 1, time.Millisecond, time.Millisecond + 1,
		time.Second - 1, time.Second, time.Second + 1,
		-time.Microsecond, -time.Millisecond, -time.Second,
		1500 * time.Microsecond, 90 * time.Second, time.Hour + 2*time.Minute + 3500*time.Millisecond,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	} {
		checkAppendDuration(t, d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		checkAppendDuration(t, time.Duration(rng.Int63()>>rng.Intn(63)-rng.Int63()>>rng.Intn(63)))
	}
}

func FuzzAppendDuration(f *testing.F) {
	for _, d := range []int64{0, 1, -1, int64(time.Second), math.MinInt64, math.MaxInt64} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) { checkAppendDuration(t, time.Duration(d)) })
}
