package main

import (
	"testing"

	"radshield/internal/fault"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want fault.Scheme
	}{
		{"emr", fault.SchemeEMR},
		{"EMR", fault.SchemeEMR},
		{"3mr", fault.SchemeSerial3MR},
		{"serial", fault.SchemeSerial3MR},
		{"serial3mr", fault.SchemeSerial3MR},
		{"unprotected", fault.SchemeUnprotectedParallel},
		{"parallel", fault.SchemeUnprotectedParallel},
		{"none", fault.SchemeNone},
		{"checksum", fault.SchemeChecksum},
		{"Checksum", fault.SchemeChecksum},
	}
	for _, c := range cases {
		got, err := parseScheme(c.in)
		if err != nil {
			t.Errorf("parseScheme(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseScheme(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if got, err := parseScheme("tmr"); err == nil {
		t.Errorf("parseScheme(%q) = %v, want an error", "tmr", got)
	}
}
