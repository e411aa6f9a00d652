package radlint

import (
	"go/types"
	"strings"
)

// PathIsInternal reports whether an import path names library code
// under an internal/ tree (e.g. radshield/internal/emr).
func PathIsInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// PathIsCommand reports whether an import path names a command under a
// cmd/ tree (e.g. radshield/cmd/radbench).
func PathIsCommand(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// bannedTimeFuncs are the package time functions that read or schedule
// against the host clock. Deterministic simulation code must read
// simulated time instead (the machine's clock, machine.Now);
// time.Duration arithmetic and formatting remain free.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// IsWallClockFunc reports whether obj is one of the banned package time
// functions (time.Now, time.Sleep, time.Since, time.Tick, ...).
func IsWallClockFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return bannedTimeFuncs[fn.Name()]
}

// IsGlobalRandFunc reports whether obj is a package-level math/rand (or
// math/rand/v2) function drawing from the process-global generator
// (rand.Intn, rand.Float64, rand.Seed, ...). Constructors (rand.New,
// rand.NewSource, rand.NewZipf, ...) and *rand.Rand methods are fine:
// the rule is that randomness must flow through an injected, seeded
// generator so fault campaigns replay bit-identically.
func IsGlobalRandFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return !strings.HasPrefix(fn.Name(), "New")
}
