package workloads

import (
	"bytes"
	"compress/flate"
	"fmt"
	"slices"

	"radshield/internal/emr"
)

// Block/dictionary sizes for the compression workload. DEFLATE's
// back-references reach up to 32 KiB into the preceding data; each block
// is compressed with a dictionary drawn from the tail of its predecessor,
// which is exactly the data dependency the paper calls out ("the DEFLATE
// algorithm in our compression benchmark relies on data from the block
// directly preceding it").
const (
	deflateBlock = 16 << 10
	deflateDict  = 2 << 10
)

// Compression builds the DEFLATE workload. Each dataset overlaps its
// predecessor's region (the dictionary window), chaining conflicts so the
// greedy scheduler alternates jobsets — and no region repeats across
// enough datasets to be worth replicating (the paper's "No replication"
// row).
func Compression() Builder {
	return Builder{
		Name: "compression",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			n := size / deflateBlock
			if n < 1 {
				n = 1
			}
			// Compressible synthetic data: repeat structured records so
			// DEFLATE has real matches to find.
			raw := make([]byte, n*deflateBlock)
			pattern := synthetic(512, seed)
			for off := 0; off < len(raw); off += len(pattern) {
				copy(raw[off:], pattern)
				// Perturb a few bytes per repeat so blocks differ.
				raw[off] = byte(off >> 9)
			}
			data, err := rt.LoadInput("stream", raw)
			if err != nil {
				return emr.Spec{}, err
			}
			// The first block has no dictionary.
			refs := make([]emr.InputRef, 0, 2*n-1)
			datasets := make([]emr.Dataset, n)
			for i := range datasets {
				start := len(refs)
				if i > 0 {
					dictOff := uint64(i*deflateBlock - deflateDict)
					dict, err := data.Slice(dictOff, deflateDict)
					if err != nil {
						return emr.Spec{}, err
					}
					refs = append(refs, dict)
				}
				block, err := data.Slice(uint64(i*deflateBlock), deflateBlock)
				if err != nil {
					return emr.Spec{}, err
				}
				refs = append(refs, block)
				datasets[i] = emr.Dataset{Inputs: slices.Clip(refs[start:])}
			}
			return emr.Spec{
				Name:          "compression",
				Datasets:      datasets,
				Job:           deflateJob,
				CyclesPerByte: 45, // LZ77 match search dominates (not vectorizable)
			}, nil
		},
	}
}

// deflateJob compresses the block (last input) using the preceding
// window (first input, when present) as the dictionary, appending the
// stream to dst.
func deflateJob(dst []byte, inputs [][]byte) ([]byte, error) {
	var dict, block []byte
	switch len(inputs) {
	case 1:
		block = inputs[0]
	case 2:
		dict, block = inputs[0], inputs[1]
	default:
		return nil, fmt.Errorf("deflate: want [dict?, block], got %d inputs", len(inputs))
	}
	buf := bytes.NewBuffer(dst)
	w, err := flate.NewWriterDict(buf, flate.DefaultCompression, dict)
	if err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	if _, err := w.Write(block); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	return buf.Bytes(), nil
}
