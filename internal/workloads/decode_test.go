package workloads

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
)

// The decoders below read the job outputs back: they are the tests'
// oracles for what each job computed.

// InflateBlock decompresses one job output, used by tests to verify
// round-trips.
func InflateBlock(compressed, dict []byte) ([]byte, error) {
	r := flate.NewReaderDict(bytes.NewReader(compressed), dict)
	defer r.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeClass returns the argmax class from a DNN job output.
func DecodeClass(out []byte) (int, error) {
	if len(out) < 4 {
		return 0, fmt.Errorf("dnn: output too short")
	}
	return int(binary.BigEndian.Uint32(out)), nil
}

// DecodeNCC unpacks an NCC job output into (score in [-1,1], y, x).
func DecodeNCC(out []byte) (score float64, y, x uint64, err error) {
	if len(out) != 24 {
		return 0, 0, 0, fmt.Errorf("ncc: output length %d, want 24", len(out))
	}
	raw := binary.BigEndian.Uint64(out[0:])
	return float64(raw)/1e9 - 1,
		binary.BigEndian.Uint64(out[8:]),
		binary.BigEndian.Uint64(out[16:]), nil
}

// BestNCC folds dataset outputs into the global best match.
func BestNCC(outputs [][]byte) (score float64, y, x uint64, err error) {
	score = math.Inf(-1)
	for _, out := range outputs {
		if out == nil {
			continue
		}
		s, oy, ox, derr := DecodeNCC(out)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if s > score {
			score, y, x = s, oy, ox
		}
	}
	if math.IsInf(score, -1) {
		return 0, 0, 0, fmt.Errorf("ncc: no valid outputs")
	}
	return score, y, x, nil
}
