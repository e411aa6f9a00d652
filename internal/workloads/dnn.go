package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"radshield/internal/emr"
)

// MLP geometry for the neural-network workload: a small classifier of
// the kind run on orbital imagery tiles. Weights and biases are a single
// shared blob replicated per executor (the paper's "Replicate model
// weights & biases" row).
const (
	dnnIn     = 64
	dnnHidden = 32
	dnnOut    = 10
)

// dnnWeightsLen is the serialized float32 parameter count.
const dnnWeightsLen = (dnnIn*dnnHidden + dnnHidden + dnnHidden*dnnOut + dnnOut) * 4

// dnnSampleLen is one input vector in bytes.
const dnnSampleLen = dnnIn * 4

// dnnStride is the sliding-window step over the feature stream, in
// bytes. Stride < window: consecutive inference windows share half their
// input, the convolution-style access pattern that makes the DNN the
// conflict-heaviest workload in the paper ("DNNs require more cache
// clears to avoid jobset conflicts", §4.2.5).
const dnnStride = dnnSampleLen / 2

// NeuralNetwork builds the MLP inference workload: each dataset is one
// sliding window over a feature stream plus the shared weight blob.
func NeuralNetwork() Builder {
	return Builder{
		Name: "dnn",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			n := size / dnnSampleLen
			if n < 1 {
				n = 1
			}
			rng := rand.New(rand.NewSource(seed))
			weights := make([]byte, dnnWeightsLen)
			for off := 0; off < dnnWeightsLen; off += 4 {
				binary.BigEndian.PutUint32(weights[off:], math.Float32bits(float32(rng.NormFloat64()*0.3)))
			}
			streamLen := (n-1)*dnnStride + dnnSampleLen
			stream := make([]byte, streamLen)
			for off := 0; off < len(stream); off += 4 {
				binary.BigEndian.PutUint32(stream[off:], math.Float32bits(float32(rng.Float64())))
			}
			wRef, err := rt.LoadInput("weights", weights)
			if err != nil {
				return emr.Spec{}, err
			}
			sRef, err := rt.LoadInput("feature-stream", stream)
			if err != nil {
				return emr.Spec{}, err
			}
			refs := make([]emr.InputRef, 0, 2*n)
			datasets := make([]emr.Dataset, n)
			for i := range datasets {
				sample, err := sRef.Slice(uint64(i*dnnStride), dnnSampleLen)
				if err != nil {
					return emr.Spec{}, err
				}
				refs = append(refs, sample, wRef)
				datasets[i] = emr.Dataset{Inputs: slices.Clip(refs[2*i:])}
			}
			return emr.Spec{
				Name:          "dnn",
				Datasets:      datasets,
				Job:           dnnJob,
				CyclesPerByte: 30, // AVX2-class dense GEMV per byte of parameters
			}, nil
		},
	}
}

// dnnJob runs the forward pass: input → dense(ReLU) → dense → argmax.
// It appends (argmax class, logits bits) to dst, so any single-weight
// corruption shows up in the vote.
func dnnJob(dst []byte, inputs [][]byte) ([]byte, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("dnn: want [sample, weights], got %d inputs", len(inputs))
	}
	sample, weights := inputs[0], inputs[1]
	if len(sample) != dnnSampleLen {
		return nil, fmt.Errorf("dnn: sample length %d", len(sample))
	}
	if len(weights) != dnnWeightsLen {
		return nil, fmt.Errorf("dnn: weights length %d", len(weights))
	}
	f32 := func(buf []byte, idx int) float32 {
		return math.Float32frombits(binary.BigEndian.Uint32(buf[idx*4:]))
	}
	// Layer 1: hidden = relu(W1·x + b1).
	w1 := 0
	b1 := dnnIn * dnnHidden
	w2 := b1 + dnnHidden
	b2 := w2 + dnnHidden*dnnOut
	var hidden [dnnHidden]float32
	for h := 0; h < dnnHidden; h++ {
		sum := f32(weights, b1+h)
		for i := 0; i < dnnIn; i++ {
			sum += float32(f32(weights, w1+h*dnnIn+i) * f32(sample, i))
		}
		if sum < 0 {
			sum = 0
		}
		hidden[h] = sum
	}
	// Layer 2: logits = W2·hidden + b2.
	var logits [dnnOut]float32
	for o := 0; o < dnnOut; o++ {
		sum := f32(weights, b2+o)
		for h := 0; h < dnnHidden; h++ {
			sum += float32(f32(weights, w2+o*dnnHidden+h) * hidden[h])
		}
		logits[o] = sum
	}
	best := 0
	for o := 1; o < dnnOut; o++ {
		if logits[o] > logits[best] {
			best = o
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(best))
	for o := 0; o < dnnOut; o++ {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(logits[o]))
	}
	return dst, nil
}
