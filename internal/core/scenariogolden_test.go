package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"toto/internal/obs/journal"
)

// scenarioGoldens pins, for each scenarios/*.json file run as written,
// the first 8 bytes of the SHA-256 of its Result (as JSON) and of its
// journal bytes.
var scenarioGoldens = map[string][2]string{
	"chaos-week.json":          {"5b5a602a217dab23", "0a6abd7a2f18e84b"},
	"density-120.json":         {"7d76974853730430", "c1afae8d910461e3"},
	"grayfail-week.json":       {"62fffa8c9b486234", "0494ffabf5a2ebb7"},
	"maintenance-week.json":    {"8619322644c09163", "256a7df8e336416f"},
	"traffic-week-traced.json": {"e0c08ee8732b7c64", "cd45b2fd50ef741a"},
	"traffic-week.json":        {"897ca5ab81e32ec6", "f60bd457b71d7b18"},
	"upgrade-week.json":        {"0b54e56501697889", "6b72b52b8b3c184c"},
}

// TestScenarioFilesGolden runs every scenario file through
// ParseScenarioFile, Build and Run with a journal attached, and checks
// the Result and journal digests against the table. Every layer a file
// turns on (chaos, traffic, tracing, alerts, upgrades, slow-node
// detection, topology) is wired by the run itself, so a change to how a
// run builds or orders its layers that moves any output fails here.
func TestScenarioFilesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven scenario files")
	}
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(scenarioGoldens) {
		t.Errorf("%d scenario files, %d goldens", len(paths), len(scenarioGoldens))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := ParseScenarioFile(data)
			if err != nil {
				t.Fatal(err)
			}
			sc := sf.Build(DefaultModels().Set)
			var buf bytes.Buffer
			sc.Journal = journal.NewWriter(&buf)
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Journal.Close(); err != nil {
				t.Fatal(err)
			}
			journalSum := sha256.Sum256(buf.Bytes())
			got := [2]string{resultDigest(t, res), hex.EncodeToString(journalSum[:8])}
			if want, ok := scenarioGoldens[name]; !ok || got != want {
				t.Errorf("result, journal digests = %q, want %q", got, want)
			}
		})
	}
}

// resultDigest returns the first 8 bytes, in hex, of the SHA-256 of res
// encoded as JSON.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
