package main

import (
	"strings"
	"testing"
)

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		in     string
		fd, ud int
		ok     bool
	}{
		{"4x3", 4, 3, true},
		{"0x0", 0, 0, true},
		{"4x3x2", 0, 0, false},
		{"4x3junk", 0, 0, false},
		{"4x", 0, 0, false},
		{"x3", 0, 0, false},
		{"-1x3", 0, 0, false},
		{"4X3", 0, 0, false},
	} {
		fd, ud, err := parseTopology(tc.in)
		if tc.ok {
			if err != nil || fd != tc.fd || ud != tc.ud {
				t.Errorf("parseTopology(%q) = %d, %d, %v; want %d, %d", tc.in, fd, ud, err, tc.fd, tc.ud)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-topology") {
			t.Errorf("parseTopology(%q) = %d, %d, %v; want an error naming -topology", tc.in, fd, ud, err)
		}
	}
}
