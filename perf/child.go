package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"toto/internal/core"
)

// childReport is the one JSON line a child prints: raw wall-clock
// timings (the parent normalizes them), resource use of the repetition
// and its output digest.
type childReport struct {
	SetupS    float64 `json:"setup_s"`
	TrainS    float64 `json:"train_s"`
	ScenarioS float64 `json:"scenario_s"`
	Ref1S     float64 `json:"ref1_s"`
	Ref2S     float64 `json:"ref2_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	SimDays   float64 `json:"sim_days"`
	PeakRSSKB int64   `json:"peak_rss_kb"`

	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`

	CloseS  float64   `json:"close_s"`
	CellS   []float64 `json:"cell_s"`
	Speedup float64   `json:"speedup"`

	Digest       string             `json:"digest"`
	JournalBytes int64              `json:"journal_bytes"`
	Counts       map[string]float64 `json:"counts"`
	Err          string             `json:"err,omitempty"`
}

// childMain runs one repetition in this process:
//
//  1. time the set-up: trained models plus scenario parse and build,
//     measured from the parent's launch of this process;
//  2. run the reference kernel;
//  3. run the measured repetition (CPU-profiled when -cpuprofile is set);
//  4. run the reference kernel again;
//  5. print one JSON line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "seed offset")
	short := fs.Bool("short", false, "run the shortened workload")
	t0 := fs.Int64("t0", 0, "Unix nanoseconds at which the parent started this process")
	profile := fs.String("cpuprofile", "", "write a CPU profile of the repetition here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := time.Now()
	if *t0 > 0 {
		start = time.Unix(0, *t0)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	rep, err := runChild(w, *seed, *short, start, *profile)
	if err != nil {
		rep.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	return 0
}

func runChild(w *workload, seed uint64, short bool, start time.Time, profile string) (*childReport, error) {
	r := &childReport{}
	t := time.Now()
	set := core.DefaultModels().Set
	r.TrainS = time.Since(t).Seconds()

	dir, err := os.MkdirTemp("", "perf-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	t = time.Now()
	rep, err := w.prepare(set, seed, short, dir)
	if err != nil {
		return r, fmt.Errorf("set up %s: %w", w.name, err)
	}
	r.ScenarioS = time.Since(t).Seconds()
	r.SetupS = time.Since(start).Seconds()

	// The kernel runs and the repetition each start from a collected heap
	// returned to the OS, so none pays for another's garbage and the
	// repetition's peak RSS starts from the set-up's footprint, not the
	// kernel's.
	debug.FreeOSMemory()
	var sum1, sum2 [32]byte
	r.Ref1S, sum1 = refKernel()

	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return r, err
	}
	var pf *os.File
	if profile != "" {
		if pf, err = os.Create(profile); err != nil {
			return r, err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return r, err
		}
	}
	t = time.Now()
	out, runErr := rep()
	r.WallS = time.Since(t).Seconds()
	if r.PeakRSSKB, err = peakRSSKB(); err != nil {
		return r, err
	}
	if pf != nil {
		pprof.StopCPUProfile()
		if err := pf.Close(); err != nil {
			return r, err
		}
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&ms1)
	if runErr != nil {
		return r, runErr
	}
	r.CPUS = cpu1 - cpu0
	r.SimDays = out.simDays
	r.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.Mallocs = ms1.Mallocs - ms0.Mallocs
	r.GCCycles = ms1.NumGC - ms0.NumGC
	r.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	r.CloseS = out.closeS
	r.CellS = out.cellS
	r.Speedup = out.speedup
	r.Counts = out.counts()
	if r.Digest, r.JournalBytes, err = out.digest(); err != nil {
		return r, err
	}
	if err := out.check(); err != nil {
		return r, err
	}

	debug.FreeOSMemory()
	r.Ref2S, sum2 = refKernel()
	if sum1 != sum2 {
		return r, fmt.Errorf("reference kernel is not deterministic")
	}
	return r, nil
}

// cpuSeconds is the process's user plus system CPU time, all threads.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// resetPeakRSS sets the process's resident-set high-water mark (VmHWM) to
// its current resident set, so peakRSSKB reads the peak of what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSKB is the resident-set high-water mark since resetPeakRSS, in KiB.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "   75440 kB"
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
