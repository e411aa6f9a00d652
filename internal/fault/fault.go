package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind is the class of radiation event.
type Kind int

const (
	// SEU is a single-event upset: one bit flip.
	SEU Kind = iota
	// MBU is a multi-bit upset: two adjacent bit flips.
	MBU
	// SEL is a single-event latchup.
	SEL
)

// String returns the event-kind name.
func (k Kind) String() string {
	switch k {
	case SEU:
		return "SEU"
	case MBU:
		return "MBU"
	case SEL:
		return "SEL"
	default:
		return "unknown"
	}
}

// Event is one scheduled radiation strike.
type Event struct {
	T    time.Duration // offset from campaign start
	Kind Kind
	// Amps is the added latchup current for SEL events (zero otherwise).
	Amps float64
}

// Environment describes radiation intensity for an orbit/location. Rates
// are per-device expectations, matching how the paper reports them
// (e.g. "1.6 bit flips per day on the Snapdragon 801").
type Environment struct {
	Name       string
	SEUPerDay  float64 // expected upsets per day hitting the device
	MBUFrac    float64 // fraction of upsets that are multi-bit
	SELPerYear float64 // expected latchups per year
	// SELAmpsMin/Max bound the uniform micro-latchup current increase.
	SELAmpsMin float64
	SELAmpsMax float64
}

// Preset environments. SEU rates follow the paper's CRÈME-MC-derived
// figure for a Snapdragon-class SoC (1.6 bits/day in deep space); LEO
// sits lower thanks to residual geomagnetic shielding.
var (
	DeepSpace = Environment{Name: "deep-space", SEUPerDay: 1.6, MBUFrac: 0.1, SELPerYear: 2.0, SELAmpsMin: 0.07, SELAmpsMax: 0.25}
	LEO       = Environment{Name: "leo", SEUPerDay: 0.4, MBUFrac: 0.08, SELPerYear: 0.8, SELAmpsMin: 0.07, SELAmpsMax: 0.25}
)

// Schedule draws a Poisson-process event timeline for the duration. The
// returned events are sorted by time. Deterministic per rng seed.
func (e Environment) Schedule(rng *rand.Rand, dur time.Duration) []Event {
	var events []Event
	day := float64(24 * time.Hour)
	year := 365.25 * day

	appendArrivals := func(ratePerNano float64, mk func() Event) {
		if ratePerNano <= 0 {
			return
		}
		t := 0.0
		for {
			t += rng.ExpFloat64() / ratePerNano
			if t >= float64(dur) {
				return
			}
			ev := mk()
			ev.T = time.Duration(t)
			events = append(events, ev)
		}
	}

	appendArrivals(e.SEUPerDay/day, func() Event {
		if rng.Float64() < e.MBUFrac {
			return Event{Kind: MBU}
		}
		return Event{Kind: SEU}
	})
	appendArrivals(e.SELPerYear/year, func() Event {
		amps := e.SELAmpsMin
		if e.SELAmpsMax > e.SELAmpsMin {
			amps += float64(rng.Float64() * (e.SELAmpsMax - e.SELAmpsMin))
		}
		return Event{Kind: SEL, Amps: amps}
	})

	sort.Slice(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events
}

// BitFlip addresses one bit inside a byte-addressed target.
type BitFlip struct {
	Offset uint64 // byte offset within the target
	Bit    uint   // bit within the byte, 0..7
}

// RandomFlip draws a uniformly random bit position within size bytes.
// It panics on size 0 — there is nothing to strike.
func RandomFlip(rng *rand.Rand, size uint64) BitFlip {
	if size == 0 {
		//radlint:allow nopanic an empty strike target is an experiment-setup bug, not a runtime condition
		panic("fault: RandomFlip over empty target")
	}
	return BitFlip{
		Offset: uint64(rng.Int63n(int64(size))),
		Bit:    uint(rng.Intn(8)),
	}
}

// Outcome classifies the end state of one fault-injection run, the
// categories of the paper's Table 7.
type Outcome int

const (
	// Corrected: redundancy masked the fault; output correct, error
	// observed and outvoted.
	Corrected Outcome = iota
	// NoEffect: the flip landed in dead data or was absorbed by ECC;
	// output correct, nothing observed.
	NoEffect
	// DetectedError: the run failed visibly (crash, vote tie, ECC
	// machine check) — recoverable by retry.
	DetectedError
	// SDC: silent data corruption — wrong output, no indication. The
	// failure mode Radshield exists to prevent.
	SDC
)

// String returns the Table 7 column name for the outcome.
func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "Corrected"
	case NoEffect:
		return "No Effect"
	case DetectedError:
		return "Error"
	case SDC:
		return "SDC"
	default:
		return "unknown"
	}
}

// Tally accumulates outcomes across a campaign (one Table 7 row).
type Tally struct {
	Counts [4]int
}

// Add records one outcome.
func (t *Tally) Add(o Outcome) {
	if o < 0 || int(o) >= len(t.Counts) {
		//radlint:allow nopanic an out-of-range outcome enum is a programming error
		panic(fmt.Sprintf("fault: invalid outcome %d", o))
	}
	t.Counts[o]++
}
