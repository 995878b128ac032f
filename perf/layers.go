package main

import (
	"bufio"
	"fmt"
	"path"
	"strconv"
	"strings"
)

// Per-layer attribution of a CPU profile, read from `go tool pprof -raw`.
// Layers are the repository's packages, named by the last element of the
// package path.

var (
	// cpuLayers get one cpu.<layer> share each: the samples whose
	// innermost toto frame is in that layer (self time, with stdlib and
	// runtime frames charged to the calling layer). Samples with no toto
	// frame go to gc (background mark, sweep, scavenge) or other, and so
	// do toto packages not listed here.
	cpuLayers = []string{"simclock", "fabric", "population", "rgmanager", "models",
		"controlplane", "pools", "telemetry", "core", "chaos", "traffic", "reqtrace",
		"journal", "timeseries", "alert", "obs", "revenue", "rng", "trace", "fleet",
		"gc", "other"}
	// fabricFiles and trafficFiles split those two layers by source file.
	fabricFiles  = []string{"plb", "cluster", "invariants", "topology", "naming", "service", "slownode", "events", "other"}
	trafficFiles = []string{"engine", "hist", "hedge", "breaker", "other"}
	// owners are the layers whose clock callbacks own samples: the first
	// toto frame leafward of the simclock frame. protocol is core.Run
	// work outside any callback (bootstrap creates, model writes,
	// scoring).
	owners = []string{"fabric", "core", "population", "telemetry", "timeseries",
		"alert", "traffic", "chaos", "protocol", "other"}
)

// frame is one function on a sample's stack.
type frame struct {
	fn, file string
}

// layerOf returns the toto layer a frame belongs to, or "" for frames
// outside the repository (stdlib, runtime, the benchmark itself).
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, "toto/") {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may themselves contain toto/ paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn[slash+1:]
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	return pkg
}

// listed returns name if the list holds it, else "other".
func listed(name string, list []string) string {
	for _, l := range list {
		if l == name {
			return name
		}
	}
	return "other"
}

func isBackgroundGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// attribute reads `go tool pprof -raw` output and returns the percentage
// of samples per cpu.*, cpu.fabric.*, cpu.traffic.* and owner.* metric.
// Every metric is present; the cpu.* shares sum to 100.
func attribute(raw string) (map[string]float64, error) {
	type sample struct {
		n    int64
		locs []int
	}
	var samples []sample
	locs := map[int][]frame{}
	section, lastLoc := "", 0
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "Samples:", "Locations", "Mappings":
			section = trimmed
			continue
		}
		switch section {
		case "Samples:":
			// "   count   value: loc loc ...", leaf first.
			head, ids, ok := strings.Cut(trimmed, ":")
			fields := strings.Fields(head)
			if !ok || len(fields) == 0 {
				continue
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				continue // the column header
			}
			s := sample{n: n}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw: bad location %q", f)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			// "  ID: 0xADDR M=N fn file:line:col s=N", then one line per
			// inlined caller: "        fn file:line:col s=N".
			rest := trimmed
			if head, tail, ok := strings.Cut(trimmed, ": 0x"); ok && !strings.Contains(head, " ") {
				id, err := strconv.Atoi(head)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw: bad location line %q", line)
				}
				lastLoc = id
				fields := strings.SplitN(tail, " ", 3) // addr, M=, rest
				rest = ""
				if len(fields) == 3 {
					rest = fields[2]
				}
			}
			if f, ok := parseFrame(rest); ok {
				locs[lastLoc] = append(locs[lastLoc], f)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for _, m := range perLayer {
		if m.Unit == "%" {
			out[m.Name] = 0
		}
	}
	var total int64
	for _, s := range samples {
		var stack []frame // leaf first
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		total += s.n
		n := float64(s.n)
		self, layer := selfFrame(stack)
		out["cpu."+layer] += n
		file := strings.TrimSuffix(path.Base(self.file), ".go")
		switch layer {
		case "fabric":
			out["cpu.fabric."+listed(file, fabricFiles)] += n
		case "traffic":
			out["cpu.traffic."+listed(file, trafficFiles)] += n
		}
		out["owner."+owner(stack)] += n
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -raw: profile has no samples")
	}
	for k, v := range out {
		out[k] = 100 * v / float64(total)
	}
	return out, nil
}

// parseFrame splits "fn file:line:col s=N". Function names may contain
// spaces (generic shapes), file paths do not.
func parseFrame(s string) (frame, bool) {
	fields := strings.Fields(s)
	if len(fields) < 2 || !strings.HasPrefix(fields[len(fields)-1], "s=") {
		return frame{}, false
	}
	fields = fields[:len(fields)-1]
	file := fields[len(fields)-1]
	if i := strings.IndexByte(file, ':'); i >= 0 {
		file = file[:i]
	}
	fn := strings.Join(fields[:len(fields)-1], " ")
	if fn == "" {
		return frame{}, false
	}
	return frame{fn: fn, file: file}, true
}

// selfFrame finds the innermost toto frame of a sample and the cpu layer
// the sample is charged to.
func selfFrame(stack []frame) (frame, string) {
	for _, f := range stack {
		if l := layerOf(f.fn); l != "" {
			return f, listed(l, cpuLayers)
		}
	}
	for _, f := range stack {
		if isBackgroundGC(f.fn) {
			return frame{}, "gc"
		}
	}
	return frame{}, "other"
}

// owner finds whose clock callback a sample ran in: walking from the
// root, the first toto frame past the outermost simclock frame.
func owner(stack []frame) string {
	inClock, inRun := false, false
	for i := len(stack) - 1; i >= 0; i-- {
		l := layerOf(stack[i].fn)
		switch {
		case l == "simclock":
			inClock = true
		case inClock && l != "":
			return listed(l, owners)
		}
		if stack[i].fn == "toto/internal/core.Run" {
			inRun = true
		}
	}
	if inRun && !inClock {
		return "protocol"
	}
	return "other"
}
