package workloads

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"slices"
	"sync"

	"radshield/internal/emr"
)

// packetSize models typical MTU-sized frames inspected by an onboard
// intrusion-detection function.
const packetSize = 1536

// idsPattern is the shared search pattern (Go's regexp package is RE2
// syntax — the same engine family the paper's RE2 workload uses).
const idsPattern = `(?i)(cmd=(reboot|halt|dump))|x{4,}|\x00\x00\x7f`

// IntrusionDetection builds the packet-matching workload: one dataset
// per packet plus the shared pattern region, which replication privatizes
// per executor (the paper's "Replicate search pattern" row).
func IntrusionDetection() Builder {
	return Builder{
		Name: "intrusion-detection",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			n := size / packetSize
			if n < 1 {
				n = 1
			}
			raw := synthetic(n*packetSize, seed)
			// Plant matches in a deterministic subset of packets so the
			// workload has positives to find.
			for i := 0; i < n; i += 7 {
				copy(raw[i*packetSize+100:], []byte("CMD=REBOOT"))
			}
			packets, err := rt.LoadInput("packets", raw)
			if err != nil {
				return emr.Spec{}, err
			}
			pattern, err := rt.LoadInput("pattern", []byte(idsPattern))
			if err != nil {
				return emr.Spec{}, err
			}
			refs := make([]emr.InputRef, 0, 2*n)
			datasets := make([]emr.Dataset, n)
			for i := range datasets {
				packet, err := packets.Slice(uint64(i*packetSize), packetSize)
				if err != nil {
					return emr.Spec{}, err
				}
				refs = append(refs, packet, pattern)
				datasets[i] = emr.Dataset{Inputs: slices.Clip(refs[2*i:])}
			}
			return emr.Spec{
				Name:          "intrusion-detection",
				Datasets:      datasets,
				Job:           idsJob,
				CyclesPerByte: 12, // DFA scan plus per-packet setup
			}, nil
		},
	}
}

// idsRegexp is idsPattern compiled, once, on first use.
var idsRegexp = sync.OnceValue(func() *regexp.Regexp { return regexp.MustCompile(idsPattern) })

// idsJob counts the matches in the packet of the regexp its pattern
// bytes compile to and appends the count to dst. A compiled regexp is a
// function of the bytes alone, so bytes equal to idsPattern reuse
// idsRegexp and any other bytes compile as delivered: a corrupted
// pattern replica still produces different counts (or a compile error),
// which the vote catches.
func idsJob(dst []byte, inputs [][]byte) ([]byte, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("ids: want [packet, pattern], got %d inputs", len(inputs))
	}
	var re *regexp.Regexp
	if string(inputs[1]) == idsPattern {
		re = idsRegexp()
	} else {
		var err error
		if re, err = regexp.Compile(string(inputs[1])); err != nil {
			return nil, fmt.Errorf("ids: corrupt pattern: %w", err)
		}
	}
	matches := re.FindAllIndex(inputs[0], -1)
	return binary.BigEndian.AppendUint32(dst, uint32(len(matches))), nil
}
