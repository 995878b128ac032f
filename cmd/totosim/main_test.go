package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toto/internal/core"
	"toto/internal/obs/alert"
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

// TestAlertsFlagTakesAScenarioFile: -alerts given a whole scenario file
// loads that file's "alerts" section, and a misspelt key is a parse
// error, not an empty rule set.
func TestAlertsFlagTakesAScenarioFile(t *testing.T) {
	spec, err := core.ReadSection("../../scenarios/chaos-week.json", "alerts", alert.ParseSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 1 || spec.Rules[0].Name != "nodes-down" || len(spec.SLOs) != 1 || spec.SLOs[0].Name != "failover-budget" {
		t.Errorf("chaos-week alerts = %+v, want rule nodes-down and SLO failover-budget", spec)
	}
	bare := filepath.Join(t.TempDir(), "alerts.json")
	for body, ok := range map[string]bool{
		`{"rules": [{"name": "up", "series": "cluster.upNodes", "op": "<", "threshold": 14}]}`: true,
		`{"rulez": [{"name": "up", "series": "cluster.upNodes", "op": "<", "threshold": 14}]}`: false,
		`{"rules": [{"name": "up", "series": "cluster.upNodes", "op": "<", "treshold": 14}]}`:  false,
	} {
		if err := os.WriteFile(bare, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := core.ReadSection(bare, "alerts", alert.ParseSpec)
		if ok && (err != nil || len(spec.Rules) != 1) {
			t.Errorf("%s: %+v, %v; want one rule", body, spec, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "unknown field")) {
			t.Errorf("%s: %+v, %v; want an unknown-field error", body, spec, err)
		}
	}
}
