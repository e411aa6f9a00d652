package workloads

import (
	"fmt"
	"math/rand"

	"radshield/internal/emr"
)

// Builder constructs one workload's Spec on a runtime.
type Builder struct {
	// Name matches the paper's Table 5 row.
	Name string
	// Build stages inputs into the runtime's frontier and returns the
	// spec. size scales the total input volume in bytes (approximately);
	// seed makes the synthetic data deterministic.
	Build func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error)
}

// All returns the five paper workloads in Table 5 order.
func All() []Builder {
	return []Builder{
		Encryption(),
		Compression(),
		IntrusionDetection(),
		ImageProcessing(),
		NeuralNetwork(),
	}
}

// ByName returns the builder with the given name, covering both the
// Table 5 set and the NCC extension variant.
func ByName(name string) (Builder, error) {
	for _, b := range append(All(), ImageProcessingNCC()) {
		if b.Name == name {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// synthetic fills a deterministic pseudo-random buffer.
func synthetic(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}
