package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refSensor is the per-draw form of Sensor, which Sensor must match bit
// for bit: every reading draws its values one at a time from a
// math/rand generator (healthySample), and the filtered reading is the
// first least of k such readings. Its fault model is faults.go's,
// copied, so faulted readings are compared too.
type refSensor struct {
	p          Params
	rng        *rand.Rand
	seed       int64
	selOffset  float64
	baseOffset float64

	faults      []SensorFault
	now         time.Duration
	lastHealthy float64
	haveHealthy bool
	analogRaw   float64
	frng        *rand.Rand
}

func newRefSensor(p Params, seed int64) *refSensor {
	return &refSensor{p: p, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *refSensor) trueCurrentFrom(modelCur float64) float64 {
	return modelCur + s.selOffset + s.baseOffset
}

// healthySample draws one fault-free raw reading around trueCur: one
// normal draw, one uniform draw, and one more uniform on a spike.
func (s *refSensor) healthySample(trueCur float64) float64 {
	cur := trueCur + float64(s.rng.NormFloat64()*s.p.NoiseSigmaA)
	if s.rng.Float64() < s.p.SpikeProb {
		cur += 0.05 + float64(s.rng.Float64()*(s.p.SpikeMaxA-0.05))
	}
	if cur < 0 {
		cur = 0
	}
	return cur
}

func (s *refSensor) sampleFrom(modelCur float64) float64 {
	h := s.healthySample(s.trueCurrentFrom(modelCur))
	s.analogRaw = h
	return s.applyFault(h)
}

func (s *refSensor) sampleFilteredFrom(modelCur float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	trueCur := s.trueCurrentFrom(modelCur)
	min := math.Inf(1)
	for i := 0; i < k; i++ {
		if v := s.healthySample(trueCur); v < min {
			min = v
		}
	}
	return s.applyFault(min)
}

func (s *refSensor) activeFault() (SensorFault, bool) {
	for _, f := range s.faults {
		if f.active(s.now) {
			return f, true
		}
	}
	return SensorFault{}, false
}

func (s *refSensor) applyFault(healthy float64) float64 {
	f, ok := s.activeFault()
	if !ok {
		s.lastHealthy = healthy
		s.haveHealthy = true
		return healthy
	}
	switch f.Kind {
	case FaultDropout:
		return math.NaN()
	case FaultStuck:
		if s.haveHealthy {
			return s.lastHealthy
		}
		return 0
	case FaultOffset:
		return healthy + f.OffsetA
	case FaultGarbage:
		if s.frng == nil {
			s.frng = rand.New(rand.NewSource(s.seed + faultSeedSalt))
		}
		switch s.frng.Intn(3) {
		case 0:
			return math.NaN()
		case 1:
			return -s.frng.Float64() * 100
		default:
			return 100 + float64(s.frng.Float64()*1e6)
		}
	default:
		return healthy
	}
}

// referenceParams are the sensor models the comparison runs: the
// calibrated defaults, spikes on most draws, no noise at all, and noise
// wide enough that most readings clamp at zero.
func referenceParams() []struct {
	name string
	p    Params
} {
	def := DefaultParams()
	spiky, quiet, clamp := def, def, def
	spiky.SpikeProb, spiky.SpikeMaxA = 0.6, 2.5
	quiet.NoiseSigmaA, quiet.SpikeProb = 0, 0
	clamp.NoiseSigmaA = 4
	return []struct {
		name string
		p    Params
	}{{"default", def}, {"spiky", spiky}, {"zero-sigma", quiet}, {"clamp", clamp}}
}

// checkSensorMatchesReference plays ops random steps on a Sensor and on
// refSensor with the same parameters and seed, and fails on the first
// result whose bits differ. For each Sensor.Read the reference takes
// its raw reading and then its filtered one, and all four outputs are
// compared: raw, filtered (FilterK 0 to 8) and analog readings and the
// active fault's kind. The steps move latchup offsets that push the
// current negative and drift offsets, and schedule, enter and leave
// sensor faults.
func checkSensorMatchesReference(t testing.TB, name string, p Params, seed int64, ops int) {
	t.Helper()
	got, want := NewSensor(p, seed), newRefSensor(p, seed)
	script := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	now := time.Duration(0)
	var selA, driftA float64
	same := func(op int, what string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s seed %d op %d: %s = %v, reference %v", name, seed, op, what, g, w)
		}
	}
	for op := 0; op < ops; op++ {
		modelCur := p.IdleCurrentA + script.Float64()*3
		switch r := script.Intn(100); {
		case r < 2:
			selA = script.NormFloat64() * 0.5 // negative offsets clamp readings at zero
			want.selOffset = selA
		case r < 4:
			driftA = script.NormFloat64() * 0.02
			want.baseOffset = driftA
		case r < 5:
			f := SensorFault{
				Kind:     FaultKind(1 + script.Intn(4)),
				Start:    now + time.Duration(script.Intn(20))*time.Millisecond,
				Duration: time.Duration(script.Intn(3)) * 10 * time.Millisecond,
				OffsetA:  script.NormFloat64(),
			}
			if err := got.ScheduleFault(f); err != nil {
				t.Fatal(err)
			}
			want.faults = append(want.faults, f)
		case r < 40:
			now += time.Millisecond
			want.now = now
		default:
			k := script.Intn(9)
			g := got.Read(modelCur+selA+driftA, now, k)
			raw := want.sampleFrom(modelCur)
			filtered := want.sampleFilteredFrom(modelCur, k)
			same(op, "RawA", g.RawA, raw)
			same(op, fmt.Sprintf("FilteredA k=%d", k), g.FilteredA, filtered)
			same(op, "AnalogA", g.AnalogA, want.analogRaw)
			wk := FaultNone
			if f, ok := want.activeFault(); ok {
				wk = f.Kind
			}
			if g.Fault != wk {
				t.Fatalf("%s seed %d op %d: Fault = %v, reference %v", name, seed, op, g.Fault, wk)
			}
		}
	}
}

// TestSensorMatchesReference pins the sensor's one-loop readings,
// faulted or not, to the per-draw code they replace, over
// several seeds and every reference parameter set, with tens of
// thousands of readings each (ziggurat tails included).
func TestSensorMatchesReference(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 2000
	}
	for _, c := range referenceParams() {
		for seed := int64(1); seed <= 8; seed++ {
			checkSensorMatchesReference(t, c.name, c.p, seed, ops)
		}
	}
}

func FuzzSensorMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, -3} {
		f.Add(seed, uint8(0))
	}
	f.Add(int64(42), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		c := referenceParams()[int(which)%len(referenceParams())]
		checkSensorMatchesReference(t, c.name, c.p, seed, 2000)
	})
}
