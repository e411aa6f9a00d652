package emr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"radshield/internal/fault"
)

// Fuzz targets for the two arbitration primitives everything above them
// trusts, the majority vote (exec.go) and the checksum guard
// (checksum.go), and for the executors' reused visit buffers (exec.go).
// All are invariant checks, not golden tests — any input the fuzzer
// invents must keep the safety properties.
//
// CI runs these as a short smoke (-fuzz -fuzztime 10s); the committed
// seed corpora below keep the deterministic `go test` pass meaningful.

// replicaSet builds the voter's input from up to three fuzzer-chosen
// replicas; the low three bits of keep select which participate.
func replicaSet(a, b, c []byte, keep byte) [][]byte {
	var valid [][]byte
	for i, r := range [][]byte{a, b, c} {
		if keep&(1<<i) != 0 {
			valid = append(valid, r)
		}
	}
	return valid
}

func FuzzMajority(f *testing.F) {
	f.Add([]byte("out"), []byte("out"), []byte("out"), byte(7))
	f.Add([]byte("out"), []byte("out"), []byte("bad"), byte(7))
	f.Add([]byte("a"), []byte("b"), []byte("c"), byte(7))
	f.Add([]byte{}, []byte{}, []byte{0xff}, byte(7))
	f.Add([]byte("solo"), []byte(nil), []byte(nil), byte(1))
	f.Add([]byte(nil), []byte(nil), []byte(nil), byte(0))

	f.Fuzz(func(t *testing.T, a, b, c []byte, keep byte) {
		valid := replicaSet(a, b, c, keep)
		winner, unanimous, ok := majority(valid)

		// The vote is a pure function: a second call must agree.
		w2, u2, ok2 := majority(valid)
		if !bytes.Equal(winner, w2) || unanimous != u2 || ok != ok2 {
			t.Fatalf("vote not deterministic: (%x,%v,%v) then (%x,%v,%v)", winner, unanimous, ok, w2, u2, ok2)
		}

		agreeing := 0
		for _, v := range valid {
			if bytes.Equal(v, winner) {
				agreeing++
			}
		}
		switch {
		case !ok:
			// A failed vote must mean there was genuinely no majority: no
			// pair of replicas may agree, and a lone replica always wins.
			if len(valid) == 1 {
				t.Fatal("single replica rejected")
			}
			for i := range valid {
				for j := i + 1; j < len(valid); j++ {
					if bytes.Equal(valid[i], valid[j]) {
						t.Fatalf("vote failed despite agreeing replicas %d and %d", i, j)
					}
				}
			}
		case len(valid) >= 2:
			// A winner among ≥2 replicas must hold a real majority pair —
			// a single flipped replica can never win the vote.
			if agreeing < 2 {
				t.Fatalf("winner %x has only %d agreeing replicas", winner, agreeing)
			}
		default:
			if agreeing != 1 {
				t.Fatalf("lone replica vote returned a foreign winner %x", winner)
			}
		}
		if unanimous && agreeing != len(valid) {
			t.Fatalf("unanimous with %d/%d agreeing replicas", agreeing, len(valid))
		}
		if !ok && (winner != nil || unanimous) {
			t.Fatalf("failed vote leaked winner %x unanimous=%v", winner, unanimous)
		}
	})
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint16(3), byte(5), false)
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(0), byte(0), true)
	f.Add([]byte{0xff}, uint16(9), byte(7), true)
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint16(131), byte(2), true)

	f.Fuzz(func(t *testing.T, data []byte, flipOff uint16, flipBit byte, flip bool) {
		if len(data) == 0 {
			t.Skip()
		}
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		want, err := sumJob(nil, [][]byte{data})
		if err != nil {
			t.Fatal(err)
		}

		cfg := DefaultConfig()
		cfg.Scheme = fault.SchemeChecksum
		cfg.Executors = 1
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rt.LoadInput("fuzz", data)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{
			Name:          "fuzz",
			Datasets:      []Dataset{{Inputs: []InputRef{ref}}},
			Job:           sumJob,
			CyclesPerByte: 10,
		}
		landed := false
		if flip {
			done := false
			spec.Hook = func(hp *HookPoint) {
				if done || hp.Phase != PhaseAfterRead {
					return
				}
				done = true
				addr := hp.Regions[0].Addr + uint64(flipOff)%hp.Regions[0].Len
				landed = rt.Cache().FlipBit(addr, uint(flipBit%8))
			}
		}
		res, err := rt.Run(spec)
		if err != nil {
			t.Fatal(err)
		}

		if landed {
			// A strike in the consumed bytes must surface as a detected
			// checksum mismatch — never a silent wrong output.
			if !errors.Is(res.PerDataset[0].Err, ErrChecksumMismatch) {
				t.Fatalf("corrupted input not detected: err=%v out=%x want=%x",
					res.PerDataset[0].Err, res.Outputs[0], want)
			}
			if res.Outputs[0] != nil {
				t.Fatal("corrupted dataset still produced an output")
			}
			return
		}
		if res.PerDataset[0].Err != nil {
			t.Fatalf("clean run reported error: %v", res.PerDataset[0].Err)
		}
		if !bytes.Equal(res.Outputs[0], want) {
			t.Fatalf("clean output %x, want %x", res.Outputs[0], want)
		}
	})
}

// shapeJob folds the input count, each input's length and its bytes
// into an FNV-1a digest, so an input served from a reused buffer at the
// wrong length, with stale bytes, or in the wrong slot changes the
// output.
func shapeJob(dst []byte, inputs [][]byte) ([]byte, error) {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	mix(byte(len(inputs)))
	for _, in := range inputs {
		for s := 0; s < 32; s += 8 {
			mix(byte(len(in) >> s))
		}
		for _, b := range in {
			mix(b)
		}
	}
	return binary.BigEndian.AppendUint64(dst, h), nil
}

// shapeDatasets cuts up to 12 datasets out of ref as shape directs.
// Each takes 1–4 inputs, and each input is either a fresh slice of
// 1 B–2 KiB at any offset (slices overlap freely) or an exact repeat of
// an earlier one (a shared region, which EMR replicates).
func shapeDatasets(ref InputRef, shape []byte) []Dataset {
	next := func() uint64 {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return uint64(b)
	}
	var cut []InputRef
	var datasets []Dataset
	for len(shape) > 0 && len(datasets) < 12 {
		var inputs []InputRef
		for n := 1 + next()%4; n > 0; n-- {
			if c := next(); c >= 0xc0 && len(cut) > 0 {
				inputs = append(inputs, cut[int(c)%len(cut)])
				continue
			}
			off := (next()<<8 | next()) % ref.Region.Len
			size := 1 + (next()<<8|next())%min(2<<10, ref.Region.Len-off)
			in := mustSlice(ref, off, size)
			cut = append(cut, in)
			inputs = append(inputs, in)
		}
		datasets = append(datasets, Dataset{Inputs: inputs})
	}
	return datasets
}

// FuzzRunShapes checks the executors' reused visit buffers: whatever
// mix of input counts and region sizes the datasets have, every scheme,
// hooked or not, must hand each job exactly the bytes of its regions,
// both in buffers sized for the spec and in buffers grown after a
// smaller one. Each output is compared with shapeJob applied to bytes
// read straight from the bus.
func FuzzRunShapes(f *testing.F) {
	f.Add(bytes.Repeat([]byte("radshield"), 100), []byte{0, 0, 0, 0, 0, 16})
	f.Add([]byte("0123456789abcdef"), []byte{1, 0, 0, 0, 0, 7, 0, 0, 8, 0, 7, 0, 0xc0, 0xc1})
	// The second dataset's first input (100 B) outgrows the 4 B slot the
	// first dataset alone sized, within the slab that slot was cut from.
	f.Add(bytes.Repeat([]byte("radshield"), 100), []byte{1, 0, 0, 0, 0, 3, 0, 0, 0, 1, 43, 1, 0, 0, 50, 0, 99, 0, 0, 200, 0, 49})

	f.Fuzz(func(t *testing.T, data, shape []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		if len(data) > 8<<10 {
			data = data[:8<<10]
		}
		for _, scheme := range []fault.Scheme{fault.SchemeEMR, fault.SchemeUnprotectedParallel, fault.SchemeSerial3MR, fault.SchemeNone, fault.SchemeChecksum} {
			// A runtime sizes its executors' scratch from its first Run's
			// spec. One fresh runtime runs the full spec first; another
			// runs the first dataset alone first, so the full spec's Runs
			// grow its scratch wherever another dataset has more inputs
			// or longer ones.
			for _, firstAlone := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.CacheSets = 64 // a small cache also exercises refetch after eviction
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := rt.LoadInput("fuzz", data)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{Name: "shapes", Datasets: shapeDatasets(ref, shape), Job: shapeJob, CyclesPerByte: 1}
				if len(spec.Datasets) == 0 {
					t.Skip()
				}
				want := make([][]byte, len(spec.Datasets))
				for d, ds := range spec.Datasets {
					inputs := make([][]byte, len(ds.Inputs))
					for i, in := range ds.Inputs {
						inputs[i] = make([]byte, in.Region.Len)
						if err := rt.bus.Read(in.Region.Addr, inputs[i]); err != nil {
							t.Fatal(err)
						}
					}
					want[d], _ = shapeJob(nil, inputs)
				}
				if firstAlone {
					first := spec
					first.Datasets = spec.Datasets[:1]
					res, err := rt.Run(first)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(res.Outputs[0], want[0]) {
						t.Fatalf("%v: the first dataset alone output %x, want %x", scheme, res.Outputs[0], want[0])
					}
				}
				for _, hook := range []Hook{nil, func(*HookPoint) {}} {
					spec.Hook = hook
					res, err := rt.Run(spec)
					if err != nil {
						t.Fatal(err)
					}
					for d := range want {
						if err := res.PerDataset[d].Err; err != nil {
							t.Fatalf("%v first-alone=%v hooked=%v: dataset %d: %v", scheme, firstAlone, hook != nil, d, err)
						}
						if !bytes.Equal(res.Outputs[d], want[d]) {
							t.Fatalf("%v first-alone=%v hooked=%v: dataset %d output %x, want %x", scheme, firstAlone, hook != nil, d, res.Outputs[d], want[d])
						}
					}
				}
			}
		}
	})
}
