package experiments

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"radshield/internal/adapt"
	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/workloads"
)

// refPayload is examples/leomission's payload contact as that program
// ran it before StrikePayload, kept as the reference StrikePayload must
// match bit for bit: a fresh runtime for the posture's plan, the
// localization job on a 64 KiB map, and the backlog of SEUs striking
// the shared cache mid-run, each read struck with probability 0.02.
func refPayload(t *testing.T, p adapt.Posture, seed int64, seus int) *emr.Result {
	t.Helper()
	plan := p.Plan()
	cfg := emr.DefaultConfig()
	cfg.Scheme, cfg.Executors = plan.Scheme, plan.Executors
	rt, err := emr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ImageProcessing().Build(rt, 64<<10, 2026)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	spec.Hook = func(hp *emr.HookPoint) {
		if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < 0.02 {
			reg := hp.Regions[rng.Intn(len(hp.Regions))]
			f := fault.RandomFlip(rng, reg.Len)
			if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
				remaining--
			}
		}
	}
	res, err := rt.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// raceEnabled is set under the race detector, which runs a payload
// about 35 times slower; the reference grid then stops at seed 4, which
// still reaches a corrected and a failed vote.
var raceEnabled bool

// TestStrikePayloadMatchesReference holds StrikePayload at
// examples/leomission's size and strike rate to the reference: the same
// outputs, per-dataset results and report at every posture's plan,
// seeds 1–20 and SEU backlogs of 0, 1, 5 and 50. The grid must reach a
// corrected vote (TMR outvotes an upset) and a failed one (DMR cannot),
// so the strikes' paths are compared too, not only clean runs.
func TestStrikePayloadMatchesReference(t *testing.T) {
	seeds := int64(20)
	if raceEnabled {
		seeds = 4
	}
	var corrected, failed atomic.Int64
	t.Run("postures", func(t *testing.T) {
		for l := adapt.LevelRelaxed; l <= adapt.LevelMax; l++ {
			t.Run(l.String(), func(t *testing.T) {
				t.Parallel()
				p := adapt.PostureFor(l)
				for seed := int64(1); seed <= seeds; seed++ {
					for _, seus := range []int{0, 1, 5, 50} {
						want := refPayload(t, p, seed, seus)
						got, err := StrikePayload(p.Plan(), 64<<10, 0.02, seed, seus)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Outputs, want.Outputs) ||
							!reflect.DeepEqual(got.PerDataset, want.PerDataset) ||
							!reflect.DeepEqual(got.Report, want.Report) {
							t.Fatalf("seed %d seus %d: StrikePayload\n%+v\nreference\n%+v", seed, seus, got.Report, want.Report)
						}
						if got.Report.Votes.Corrected > 0 {
							corrected.Add(1)
						}
						if got.Report.Votes.Failed > 0 {
							failed.Add(1)
						}
					}
				}
			})
		}
	})
	if corrected.Load() == 0 || failed.Load() == 0 {
		t.Fatalf("%d runs corrected a vote and %d failed one; the grid must reach both", corrected.Load(), failed.Load())
	}
}
