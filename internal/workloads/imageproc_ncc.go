package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"radshield/internal/emr"
)

// ImageProcessingNCC is the normalized-cross-correlation variant of the
// global-localization workload — the matching method the paper's flight
// algorithm family actually uses (SAD, in ImageProcessing, is the cheap
// integer substitute). NCC is illumination-invariant: it finds the
// template even when the map's brightness and contrast differ from the
// capture, at the cost of float math.
//
// Float determinism matters here: EMR votes on output bytes, so the
// redundant executors must produce bit-identical floats. Go guarantees
// that for identical instruction sequences, which the tests verify.
func ImageProcessingNCC() Builder {
	return Builder{
		Name: "image-processing-ncc",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			spec, err := ImageProcessing().Build(rt, size, seed)
			if err != nil {
				return emr.Spec{}, err
			}
			// Same datasets and staging; only the job and its cost differ.
			spec.Name = "image-processing-ncc"
			spec.Job = nccJob
			spec.CyclesPerByte = 60 // float MADDs + two running sums per pixel
			return spec, nil
		},
	}
}

// nccJob scans every x offset of the strip for the highest normalized
// cross-correlation against the template, appending
// (score×1e9 as u64, globalY, bestX) to dst.
func nccJob(dst []byte, inputs [][]byte) ([]byte, error) {
	if len(inputs) != 3 {
		return nil, fmt.Errorf("ncc: want [strip, params, template], got %d inputs", len(inputs))
	}
	strip, params, tmpl := inputs[0], inputs[1], inputs[2]
	if len(params) != imgParamsLen {
		return nil, fmt.Errorf("ncc: params length %d", len(params))
	}
	width := int(binary.BigEndian.Uint64(params[0:]))
	originY := binary.BigEndian.Uint64(params[8:])
	if width <= 0 || len(strip)%width != 0 {
		return nil, fmt.Errorf("ncc: strip %d not a multiple of width %d", len(strip), width)
	}
	if len(tmpl) != imgTemplate*imgTemplate {
		return nil, fmt.Errorf("ncc: template length %d", len(tmpl))
	}
	rows := len(strip) / width
	if rows < imgTemplate {
		return nil, fmt.Errorf("ncc: strip of %d rows shorter than template", rows)
	}

	// Template statistics are loop-invariant.
	var tSum, tSumSq float64
	for _, p := range tmpl {
		v := float64(p)
		tSum += v
		tSumSq += float64(v * v)
	}
	n := float64(imgTemplate * imgTemplate)
	tMean := tSum / n
	tVar := tSumSq - float64(n*tMean*tMean)
	if tVar <= 0 {
		return nil, fmt.Errorf("ncc: degenerate (flat) template")
	}

	bestScore := math.Inf(-1)
	bestX := 0
	for x := 0; x+imgTemplate <= width; x++ {
		var sSum, sSumSq, cross float64
		for ty := 0; ty < imgTemplate; ty++ {
			rowOff := ty*width + x
			srow := strip[rowOff : rowOff+imgTemplate]
			trow := tmpl[ty*imgTemplate : (ty+1)*imgTemplate]
			for tx := 0; tx < imgTemplate; tx++ {
				sv := float64(srow[tx])
				sSum += sv
				sSumSq += float64(sv * sv)
				cross += float64(sv * float64(trow[tx]))
			}
		}
		sMean := sSum / n
		sVar := sSumSq - float64(n*sMean*sMean)
		if sVar <= 0 {
			continue // flat window: correlation undefined
		}
		score := (cross - float64(n*sMean*tMean)) / math.Sqrt(sVar*tVar)
		if score > bestScore {
			bestScore, bestX = score, x
		}
	}
	if math.IsInf(bestScore, -1) {
		return nil, fmt.Errorf("ncc: no valid window in strip")
	}
	// Fixed-point encode so voting compares exact bytes.
	return appendMatch(dst, uint64(int64((bestScore+1)*1e9)), originY, uint64(bestX)), nil
}
