package workloads

import (
	"encoding/binary"
	"fmt"
	"slices"

	"radshield/internal/emr"
)

// Geometry of the global-localization workload (the paper's guiding
// example from the Perseverance rover: match a local map against every
// N×N window of a global map). Datasets are horizontal strips of the
// global map; each job scans all x positions within its strip. Strips
// overlap (stride < template height), which is exactly the red-block
// conflict of the paper's Figure 6; the match template is shared by every
// dataset and gets replicated (Figure 9's optimal scheme).
const (
	imgTemplate = 32 // template is imgTemplate × imgTemplate pixels
	imgStride   = 16 // strip start spacing; < imgTemplate → overlaps
)

// imgParams is the tiny per-dataset parameter block (map width and strip
// origin) stored on the frontier alongside the pixels.
const imgParamsLen = 16

// ImageProcessing builds the map-matching workload. size is interpreted
// as the approximate global map byte count; the map is made square-ish
// with a fixed width.
func ImageProcessing() Builder {
	return Builder{
		Name: "image-processing",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			const width = 256
			height := size / width
			if height < imgTemplate {
				height = imgTemplate
			}
			global := synthetic(width*height, seed)
			// Plant the template at a known position so there is a true
			// best match.
			template := make([]byte, imgTemplate*imgTemplate)
			for y := 0; y < imgTemplate; y++ {
				for x := 0; x < imgTemplate; x++ {
					template[y*imgTemplate+x] = byte(x*7 ^ y*13)
				}
			}
			plantY := (height / 2 / imgStride) * imgStride
			if plantY+imgTemplate > height {
				plantY = 0 // maps under 48 rows: keep the template inside
			}
			plantX := 96
			for y := 0; y < imgTemplate; y++ {
				copy(global[(plantY+y)*width+plantX:], template[y*imgTemplate:(y+1)*imgTemplate])
			}

			mapRef, err := rt.LoadInput("global-map", global)
			if err != nil {
				return emr.Spec{}, err
			}
			tmplRef, err := rt.LoadInput("match-image", template)
			if err != nil {
				return emr.Spec{}, err
			}

			nStrips := (height-imgTemplate)/imgStride + 1
			params := make([]byte, 0, nStrips*imgParamsLen)
			for i := 0; i < nStrips; i++ {
				params = binary.BigEndian.AppendUint64(params, uint64(width))
				params = binary.BigEndian.AppendUint64(params, uint64(i*imgStride))
			}
			paramsRef, err := rt.LoadInput("params", params)
			if err != nil {
				return emr.Spec{}, err
			}
			refs := make([]emr.InputRef, 0, 3*nStrips)
			datasets := make([]emr.Dataset, nStrips)
			for i := range datasets {
				rows, err := mapRef.Slice(uint64(i*imgStride*width), uint64(imgTemplate*width))
				if err != nil {
					return emr.Spec{}, err
				}
				job, err := paramsRef.Slice(uint64(i*imgParamsLen), imgParamsLen)
				if err != nil {
					return emr.Spec{}, err
				}
				refs = append(refs, rows, job, tmplRef)
				datasets[i] = emr.Dataset{Inputs: slices.Clip(refs[3*i:])}
			}
			return emr.Spec{
				Name:          "image-processing",
				Datasets:      datasets,
				Job:           imageJob,
				CyclesPerByte: 26, // SSE2-class SAD over a 32×32 template per window column
			}, nil
		},
	}
}

// imageJob scans every x offset of the strip for the best (lowest) sum of
// absolute differences against the template, appending
// (bestSAD, globalY, bestX) to dst as three big-endian uint64s.
func imageJob(dst []byte, inputs [][]byte) ([]byte, error) {
	if len(inputs) != 3 {
		return nil, fmt.Errorf("imageproc: want [strip, params, template], got %d inputs", len(inputs))
	}
	strip, params, tmpl := inputs[0], inputs[1], inputs[2]
	if len(params) != imgParamsLen {
		return nil, fmt.Errorf("imageproc: params length %d", len(params))
	}
	width := int(binary.BigEndian.Uint64(params[0:]))
	originY := binary.BigEndian.Uint64(params[8:])
	if width <= 0 || len(strip)%width != 0 {
		return nil, fmt.Errorf("imageproc: strip %d not a multiple of width %d", len(strip), width)
	}
	if len(tmpl) != imgTemplate*imgTemplate {
		return nil, fmt.Errorf("imageproc: template length %d", len(tmpl))
	}
	rows := len(strip) / width
	if rows < imgTemplate {
		return nil, fmt.Errorf("imageproc: strip of %d rows shorter than template", rows)
	}
	bestSAD := ^uint64(0)
	bestX := 0
	for x := 0; x+imgTemplate <= width; x++ {
		var sad uint64
		for ty := 0; ty < imgTemplate && sad < bestSAD; ty++ {
			rowOff := ty*width + x
			sad += rowSAD((*[imgTemplate]byte)(strip[rowOff:]), (*[imgTemplate]byte)(tmpl[ty*imgTemplate:]))
		}
		if sad < bestSAD {
			bestSAD, bestX = sad, x
		}
	}
	return appendMatch(dst, bestSAD, originY, uint64(bestX)), nil
}

// SWAR constants for rowSAD: each uint64 holds four 16-bit lanes.
const (
	laneLow  = 0x00ff00ff00ff00ff // the low byte of every lane
	laneBias = 0x0100010001000100 // 256 in every lane
	laneOne  = 0x0001000100010001 // 1 in every lane
)

// rowSAD returns the sum of absolute differences of two template-wide
// pixel rows, eight pixels per uint64: the even and the odd bytes of a
// word each widen to four 16-bit lanes. A row adds at most 8×255 to a
// lane, and the four lanes sum to at most 32×255, so nothing carries out
// of a lane.
func rowSAD(s, t *[imgTemplate]byte) uint64 {
	var acc uint64
	for i := 0; i < imgTemplate; i += 8 {
		a := binary.LittleEndian.Uint64(s[i:])
		b := binary.LittleEndian.Uint64(t[i:])
		acc += laneAbsDiff(a&laneLow, b&laneLow) + laneAbsDiff(a>>8&laneLow, b>>8&laneLow)
	}
	return acc * laneOne >> 48 // the four lanes' sum lands in the top lane
}

// laneAbsDiff returns |a−b| in each 16-bit lane of two words whose
// lanes hold one byte each. Every lane of (a|bias)−b is 256 + a − b in
// [1, 511], so no lane borrows from the next; bit 8 of a lane is set
// exactly when a ≥ b. Lanes with a < b hold 256 − |a−b| in their low
// byte, which the sign mask turns into |a−b| = (low ^ 0xff) + 1.
func laneAbsDiff(a, b uint64) uint64 {
	d := (a | laneBias) - b
	neg := d>>8&laneOne ^ laneOne
	return (d&laneLow ^ neg*0xff) + neg
}

// appendMatch appends an image-processing job output, the match's
// score, row and column, to dst.
func appendMatch(dst []byte, score, y, x uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, score)
	dst = binary.BigEndian.AppendUint64(dst, y)
	return binary.BigEndian.AppendUint64(dst, x)
}

// DecodeMatch unpacks an image-processing job output.
func DecodeMatch(out []byte) (sad, y, x uint64, err error) {
	if len(out) != 24 {
		return 0, 0, 0, fmt.Errorf("imageproc: output length %d, want 24", len(out))
	}
	return binary.BigEndian.Uint64(out[0:]),
		binary.BigEndian.Uint64(out[8:]),
		binary.BigEndian.Uint64(out[16:]), nil
}

// BestMatch folds all dataset outputs into the global best (the final
// localization answer the spacecraft uses).
func BestMatch(outputs [][]byte) (sad, y, x uint64, err error) {
	sad = ^uint64(0)
	for _, out := range outputs {
		if out == nil {
			continue
		}
		s, oy, ox, derr := DecodeMatch(out)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if s < sad {
			sad, y, x = s, oy, ox
		}
	}
	if sad == ^uint64(0) {
		return 0, 0, 0, fmt.Errorf("imageproc: no valid outputs")
	}
	return sad, y, x, nil
}
