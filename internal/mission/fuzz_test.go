package mission

import (
	"math/rand"
	"testing"
	"time"

	"radshield/internal/fault"
)

// FuzzProfileSchedule hammers the profile→event-stream generator with
// arbitrary phase shapes: whatever the fuzzer builds, a profile that
// passes Validate must schedule without error, produce a sorted
// timeline, keep every event inside the mission span and inside a
// phase whose multipliers are non-zero, and replay byte-identically
// for the same seed.
func FuzzProfileSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(30), uint8(1), uint16(10), uint8(5), uint16(60), 400.0)
	f.Add(int64(7), uint8(5), uint16(20), uint8(2), uint16(90), uint8(0), uint16(45), 2000.0)
	f.Add(int64(42), uint8(4), uint16(1), uint8(4), uint16(1), uint8(4), uint16(1), 1.0)
	f.Add(int64(-3), uint8(3), uint16(600), uint8(1), uint16(0), uint8(2), uint16(15), 0.5)

	f.Fuzz(func(t *testing.T, seed int64, k0 uint8, m0 uint16, k1 uint8, m1 uint16, k2 uint8, m2 uint16, boost float64) {
		mk := func(k uint8, mins uint16) Phase {
			return NewPhase(PhaseKind(int(k)%numPhaseKinds), time.Duration(mins)*time.Minute)
		}
		p := Profile{
			Name:  "fuzz",
			Base:  fault.LEO,
			Phase: []Phase{mk(k0, m0), mk(k1, m1), mk(k2, m2)},
		}
		if boost > 0 && boost < 1e6 {
			p = p.Boosted(boost)
		}
		if err := p.Validate(); err != nil {
			// Zero-duration phases and boosts that expect more events
			// than Validate allows are the invalid shapes this fuzzer
			// can build; Schedule must refuse them, not draw.
			if _, serr := p.Schedule(rand.New(rand.NewSource(seed))); serr == nil {
				t.Fatal("Schedule accepted a profile Validate rejected")
			}
			return
		}
		events, err := p.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("valid profile failed to schedule: %v", err)
		}
		total := p.Total()
		for i, ev := range events {
			if i > 0 && ev.T < events[i-1].T {
				t.Fatalf("events out of order at %d", i)
			}
			if ev.T < 0 || ev.T >= total {
				t.Fatalf("event %d at %v outside mission [0, %v)", i, ev.T, total)
			}
			ph, _ := p.PhaseAt(ev.T)
			switch ev.Kind {
			case fault.SEL:
				if ph.SEL == 0 {
					t.Fatalf("SEL at %v inside a zero-SEL phase", ev.T)
				}
				if ev.Amps <= 0 {
					t.Fatalf("SEL at %v with non-positive amps %v", ev.T, ev.Amps)
				}
			default:
				if ph.SEU == 0 {
					t.Fatalf("%v at %v inside a zero-SEU phase", ev.Kind, ev.T)
				}
			}
		}
		again, err := p.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(events) {
			t.Fatalf("same seed drew %d then %d events", len(events), len(again))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("same seed diverged at event %d", i)
			}
		}
	})
}
