package machine

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestSinMatchesMath pins the thermal drift's sine to math.Sin bit for
// bit: at the phase of every 10 ms instant of a 48 h flight, computed as
// Step computes it for the default orbit, at 5 M random arguments in
// (0, 2^29), at the reduction's edges, and at arguments sin hands to
// math.Sin.
//
// The reference is math.Sin as amd64 computes it, in pure Go with no
// fused multiply-add. Other architectures fuse math.sin's products or
// use an assembly sine, so there the reference itself rounds
// differently, and the comparison runs on amd64 only.
func TestSinMatchesMath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Sin on %s is not amd64's pure-Go sine", runtime.GOARCH)
	}
	check := func(what string, x float64) {
		if got, want := sin(x), math.Sin(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: sin(%v) = %v, math.Sin %v", what, x, got, want)
		}
	}
	period := DefaultConfig().Power.ThermalDriftPeriodSec
	instants, args := 48*time.Hour/(10*time.Millisecond), 5_000_000
	if testing.Short() {
		instants, args = instants/100, args/100
	}
	for i := time.Duration(1); i <= instants; i++ {
		now := i * 10 * time.Millisecond
		check("drift phase", 2*math.Pi*now.Seconds()/period)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < args/2; i++ {
		// Uniform in the exponent as well as in [0, 2^29), so small
		// arguments and every octant both get covered.
		check("random", math.Ldexp(r.Float64(), r.Intn(60)-30))
		check("random", r.Float64()*sinReduceMax)
	}
	for _, x := range []float64{
		math.SmallestNonzeroFloat64, 1e-300, math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		math.Nextafter(sinReduceMax, 0), sinReduceMax, 1e300, math.MaxFloat64,
		0, math.Copysign(0, -1), -1, -sinReduceMax, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check("edge", x)
	}
}
