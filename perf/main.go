// Command perf is the repository's end-to-end benchmark. It runs named
// workloads through the simulator's public entry points (core.Run and
// fleet.Run), one child process per repetition, checks every repetition's
// output against a golden digest, and reports end-to-end metrics
// normalized to a fixed reference kernel plus per-layer metrics from a
// separate CPU-profiled child. See README.md.
//
//	perf [-workload name] [-seed n] [-seconds s] [-trace -1|0|1] [-out file]
//	perf compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// measuredChildren is R, the untraced children per workload in a full
// set; a time-boxed run takes at least minChildren.
const (
	measuredChildren = 5
	minChildren      = 3
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// setFile is the result file -out writes and compare reads.
type setFile struct {
	Meta struct {
		Date       string  `json:"date"`
		GoVersion  string  `json:"go_version"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		R0         float64 `json:"r0_s"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
	} `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 0, "offset every scenario, chaos and traffic seed by this much")
	seconds := fs.Float64("seconds", 0, "time-box each workload's untraced children (0: exactly R of them)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
	out := fs.String("out", "", "write the result file here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace < -1 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perf: -trace must be -1, 0 or 1 and -seconds non-negative")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 2
		}
		selected = []*workload{w}
	}

	set := &setFile{}
	set.Meta.Date = time.Now().UTC().Format(time.RFC3339)
	set.Meta.GoVersion = runtime.Version()
	set.Meta.NumCPU = runtime.NumCPU()
	set.Meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	set.Meta.R0 = R0
	set.Meta.Seed = *seed
	set.Meta.Seconds = *seconds
	for _, w := range selected {
		p := plan{w: w, seed: *seed, seconds: *seconds, measured: measuredChildren,
			endToEnd: *trace != 1, traced: *trace != 0}
		if *seconds > 0 {
			p.measured = minChildren
			if !p.endToEnd {
				p.measured = 1 // the untraced children only supply counts here
			}
		}
		set.Workloads = append(set.Workloads, measure(p))
	}

	printTable(os.Stdout, set.Workloads)
	if *out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
	}
	line, err := resultLine(set.Workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range set.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
