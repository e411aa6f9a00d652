// Package puredemo is an emrpurity fixture: job functions handed to
// the EMR replica runner, pure and impure. Findings are reported at
// the site where the job is handed over, with the call chain from the
// job down to the primitive nondeterminism.
package puredemo

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"time"

	"radshield/internal/emr"
	"radshield/internal/puredemo/impure"
)

// hits is mutable package-level state no replica may touch.
var hits int

// errCorrupt is an error sentinel — package-level, but conventionally
// immutable, so jobs may compare against it.
var errCorrupt = errors.New("puredemo: corrupt input")

// xorTable is package-level but written by nothing after its
// declaration: configuration, not state, so jobs may read it.
var xorTable = [4]byte{0x1d, 0x2e, 0x3f, 0x40}

// PureSpec builds a spec whose job touches nothing but its inputs and
// immutable package data.
func PureSpec() emr.Spec {
	return emr.Spec{
		Name: "pure",
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			if len(inputs) == 0 {
				return nil, errCorrupt
			}
			sum := byte(0)
			for i, b := range inputs[0] {
				sum ^= b ^ xorTable[i%len(xorTable)]
			}
			return append(dst, sum), nil
		},
	}
}

// CountingSpec captures package state — healthy replicas disagree.
func CountingSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) { // want `emr job function literal is not replica-deterministic: package-level variable puredemo\.hits \(write of package-level state\)`
			hits++
			return nil, nil
		},
	}
}

// ClockSpec stamps outputs with the wall clock.
func ClockSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) { // want `emr job function literal is not replica-deterministic: time\.Now \(wall-clock read\)`
			t := time.Now()
			return append(dst, t.String()...), nil
		},
	}
}

// randomJob draws from the global generator.
func randomJob(dst []byte, inputs [][]byte) ([]byte, error) {
	return append(dst, byte(rand.Intn(256))), nil
}

// NamedSpec hands a named package function to the runner; the purity
// engine summarizes its body wherever it is declared.
func NamedSpec() emr.Spec {
	return emr.Spec{Job: randomJob} // want `emr job randomJob is not replica-deterministic: rand\.Intn \(global randomness\)`
}

// bumpHits is a helper reached transitively from a job.
func bumpHits() {
	hits++
}

// TransitiveSpec shows same-package callees are followed; the chain
// names the helper carrying the impurity.
func TransitiveSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) { // want `emr job function literal is not replica-deterministic: package-level variable puredemo\.hits \(write of package-level state\) via puredemo\.bumpHits`
			bumpHits()
			return nil, nil
		},
	}
}

// CrossPackageSpec calls into a sibling fixture package whose impurity
// is invisible to a per-package walk: the cross-package facts carry it
// back to this job.
func CrossPackageSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) { // want `emr job function literal is not replica-deterministic: time\.Now \(wall-clock read\) via impure\.Stamp`
			return impure.Stamp(append(dst, inputs[0]...)), nil
		},
	}
}

// CaptureSpec mutates a variable captured from the enclosing function.
func CaptureSpec() emr.Spec {
	count := 0
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) { // want `emr job function literal is not replica-deterministic: captured variable count \(write to captured variable\)`
			count++
			return append(dst, byte(count)), nil
		},
	}
}

// AssignedSpec exercises the spec.Job = f assignment form.
func AssignedSpec() emr.Spec {
	var spec emr.Spec
	spec.Name = "assigned"
	spec.Job = randomJob // want `emr job randomJob is not replica-deterministic: rand\.Intn \(global randomness\)`
	return spec
}

// EndianSpec uses binary.BigEndian — a package-level variable, but a
// zero-field struct namespace with no state, so it is exempt.
func EndianSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			return binary.BigEndian.AppendUint32(dst, uint32(len(inputs[0]))), nil
		},
	}
}

// LocalAccumulatorSpec shows the sanctioned pattern for state: keep it
// local to the job invocation.
func LocalAccumulatorSpec() emr.Spec {
	return emr.Spec{
		Job: func(dst []byte, inputs [][]byte) ([]byte, error) {
			acc := 0
			for _, b := range inputs[0] {
				acc += int(b)
			}
			return append(dst, byte(acc)), nil
		},
	}
}
