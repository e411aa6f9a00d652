package trace

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Pinned generator output. testdata/generators.golden holds every
// segment every generator emits at three seeds — duration, kind, each
// core's load, frequency and disk rates, floats in shortest round-trip
// form — so a change to how a trace is built that moves any bit of any
// segment fails here. Cases longer than goldenListMax segments are
// pinned by a SHA-256 over the same per-segment lines instead of the
// lines themselves. Rewrite the file with
//
//	go test ./internal/trace -run TestGeneratorsGolden -update
//
// only for a change that is meant to move the traces.
var updateGolden = flag.Bool("update", false, "rewrite testdata/generators.golden")

const goldenListMax = 1000

var goldenCases = []struct {
	name string
	gen  func(rng *rand.Rand) *Trace
}{
	{"Quiescent(2m,15s)", func(r *rand.Rand) *Trace { return Quiescent(r, 2*time.Minute, 15*time.Second) }},
	{"Burst(30s,4)", func(r *rand.Rand) *Trace { return Burst(r, 30*time.Second, 4) }},
	{"FlightSoftware(37s,2)", func(r *rand.Rand) *Trace { return FlightSoftware(r, 37*time.Second, 2) }},
	{"FlightSoftware(20m,4)", func(r *rand.Rand) *Trace { return FlightSoftware(r, 20*time.Minute, 4) }},
	{"FlightSoftware(4h,4)", func(r *rand.Rand) *Trace { return FlightSoftware(r, 4*time.Hour, 4) }},
	{"Navigation(1m,4)", func(r *rand.Rand) *Trace { return Navigation(r, time.Minute, 4) }},
	{"MatMulSteps(4,600M..1.4G/200M,50ms)", func(*rand.Rand) *Trace { return MatMulSteps(4, 600e6, 1.4e9, 200e6, 50*time.Millisecond) }},
	{"MarsSol(4)", func(r *rand.Rand) *Trace { return MarsSol(r, 4) }},
	{"DeepSpaceCruise(30m,10m,4)", func(r *rand.Rand) *Trace { return DeepSpaceCruise(r, 30*time.Minute, 10*time.Minute, 4) }},
	{"GroundTestbed(5m,4)", func(r *rand.Rand) *Trace { return GroundTestbed(r, 5*time.Minute, 4) }},
}

// segmentLine renders every field of a segment. Runs of identical
// per-core loads print once with a count, which keeps the file small
// without dropping any core's value.
func segmentLine(i int, s Segment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %v %v f=%v r=%v w=%v", i, s.Duration, s.Kind, s.FreqHz, s.DiskReadPerSec, s.DiskWritePerSec)
	for j := 0; j < len(s.Loads); {
		k := j + 1
		for k < len(s.Loads) && s.Loads[k] == s.Loads[j] {
			k++
		}
		fmt.Fprintf(&b, " %dx%v", k-j, s.Loads[j])
		j = k
	}
	return b.String()
}

func renderGolden() string {
	var b strings.Builder
	for _, c := range goldenCases {
		for seed := int64(1); seed <= 3; seed++ {
			tr := c.gen(rand.New(rand.NewSource(seed)))
			lines := make([]string, len(tr.Segments))
			for i, s := range tr.Segments {
				lines[i] = segmentLine(i, s)
			}
			body := strings.Join(lines, "\n")
			fmt.Fprintf(&b, "== %s seed=%d segments=%d total=%v sha256=%x\n",
				c.name, seed, len(tr.Segments), tr.Total(), sha256.Sum256([]byte(body)))
			if len(lines) <= goldenListMax {
				b.WriteString(body)
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

func TestGeneratorsGolden(t *testing.T) {
	got := renderGolden()
	path := filepath.Join("testdata", "generators.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// String names a segment kind in the golden listing.
func (k Kind) String() string {
	switch k {
	case Idle:
		return "idle"
	case Housekeeping:
		return "housekeeping"
	case Workload:
		return "workload"
	default:
		return "unknown"
	}
}
