package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		boost float64
		want  string
	}{
		{"default", 4000, ""},
		{"small", 1e-3, ""},
		{"zero", 0, "-boost 0,"},
		{"negative", -1, "-boost -1,"},
		{"NaN", math.NaN(), "-boost NaN,"},
		{"infinite", math.Inf(1), "-boost +Inf,"},
		{"too many events", 1e11, "-boost 1e+11: mission:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.boost)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v, want none", err)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one starting %q", err, tc.want)
			}
		})
	}
}
