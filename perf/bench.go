package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child; a normal one takes under ten seconds.
const childTimeout = 150 * time.Second

// plan says how to measure one workload.
type plan struct {
	w     *workload
	seed  uint64
	short bool
	// seconds time-boxes the untraced children; 0 runs exactly measured
	// of them, otherwise measured is the minimum.
	seconds  float64
	measured int
	// endToEnd reports the end-to-end metrics; traced adds one
	// CPU-profiled child and reports the per-layer metrics.
	endToEnd, traced bool
}

// workloadResult is one workload's measured set.
type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Digest    string             `json:"digest"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// childRun is one child process as the parent saw it.
type childRun struct {
	rep *childReport
	err error
}

// runChildProcess re-executes this binary as a child running one
// repetition and waits for it to exit.
func runChildProcess(p plan, profile string) childRun {
	exe, err := os.Executable()
	if err != nil {
		return childRun{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"child", "-workload", p.w.name, "-seed", strconv.FormatUint(p.seed, 10)}
	if p.short {
		args = append(args, "-short")
	}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cr := childRun{}
	if err := cmd.Run(); err != nil {
		cr.err = fmt.Errorf("child: %w", err)
		return cr
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	cr.rep = &childReport{}
	if err := json.Unmarshal(lines[len(lines)-1], cr.rep); err != nil {
		cr.err = fmt.Errorf("child output: %w", err)
	} else if cr.rep.Err != "" {
		cr.err = fmt.Errorf("child: %s", cr.rep.Err)
	}
	return cr
}

// measure runs a workload's children one at a time (a closed loop: each
// repetition starts when the previous one has exited) and summarizes
// them.
func measure(p plan) *workloadResult {
	start := time.Now()
	var runs []childRun
	var took []float64
	for {
		if len(runs) >= p.measured {
			if p.seconds <= 0 {
				break
			}
			next := median(took)
			if p.traced {
				next *= 2 // leave room for the traced child
			}
			if time.Since(start).Seconds()+next > p.seconds {
				break
			}
		}
		t := time.Now()
		runs = append(runs, runChildProcess(p, ""))
		took = append(took, time.Since(t).Seconds())
	}

	// The traced child, if any, runs last and is the last of all.
	measured, all := len(runs), runs
	var raw string
	if p.traced {
		profile := filepath.Join(os.TempDir(), fmt.Sprintf("perf-%s-%d-%d.pprof", p.w.name, os.Getpid(), time.Now().UnixNano()))
		cr := runChildProcess(p, profile)
		if cr.err == nil {
			raw, cr.err = pprofRaw(profile)
		}
		os.Remove(profile)
		all = append(all, cr)
	}

	res := &workloadResult{Name: p.w.name, Metrics: map[string]summary{}}
	res.Digest = checkDigests(p, all)
	var ok []*childReport
	var refs []float64
	for i, cr := range all {
		res.Attempted++
		if cr.err != nil {
			res.Failed++
			res.Errors = append(res.Errors, cr.err.Error())
			continue
		}
		refs = append(refs, cr.rep.Ref1S, cr.rep.Ref2S)
		if i < measured {
			ok = append(ok, cr.rep)
		}
	}
	res.Correct = res.Failed == 0
	// One reference time for the whole set: the machine drifts over
	// minutes, so a set of children shares one speed, while a single
	// kernel timing varies by several per cent from one second to the
	// next. The median of every timing in the set follows the drift
	// without adding that jitter to each child.
	ref := 0.0
	if len(refs) > 0 {
		ref = median(refs)
	}

	// collect summarizes each metric over the children's values; a
	// metric no child has is still reported, with n = 0.
	collect := func(defs []metricDef, perChild []map[string]float64) {
		for _, d := range defs {
			var xs []float64
			for _, vals := range perChild {
				if v, ok := vals[d.Name]; ok {
					xs = append(xs, v)
				}
			}
			res.Metrics[d.Name] = summarize(d.Unit, xs)
		}
	}
	if p.endToEnd {
		var vals []map[string]float64
		for _, c := range ok {
			vals = append(vals, endToEndValues(c, ref))
		}
		collect(endToEnd, vals)
	}
	if p.traced {
		traced := all[len(all)-1]
		var shares map[string]float64
		if traced.err == nil {
			var err error
			if shares, err = attribute(raw); err != nil {
				res.Failed++
				res.Correct = false
				res.Errors = append(res.Errors, err.Error())
			}
		}
		var vals []map[string]float64
		for _, c := range ok {
			vals = append(vals, layerValues(c, ref))
		}
		collect(perLayer, vals)
		for name, v := range shares {
			res.Metrics[name] = summarize("%", []float64{v})
		}
		if traced.err == nil && len(ok) > 0 {
			var walls []float64
			for _, c := range ok {
				walls = append(walls, c.WallS)
			}
			overhead := traced.rep.WallS/median(walls) - 1
			res.Metrics["trace.overhead"] = summarize("ratio", []float64{overhead})
		}
	}
	return res
}

// checkDigests marks children whose output digest is wrong as failed: at
// seed 0 the full-size workloads must reproduce their golden digest, at
// any other seed every child must agree with the first one that finished.
// It returns the digest the children were held to.
func checkDigests(p plan, runs []childRun) string {
	want := ""
	if p.seed == 0 && !p.short {
		want = p.w.golden
	}
	for i := range runs {
		cr := &runs[i]
		if cr.err != nil {
			continue
		}
		if want == "" {
			want = cr.rep.Digest
		}
		if cr.rep.Digest != want {
			cr.err = fmt.Errorf("output digest %s, want %s", cr.rep.Digest, want)
		}
	}
	return want
}

// pprofRaw renders a CPU profile with `go tool pprof -raw`.
func pprofRaw(profile string) (string, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, goTool, "tool", "pprof", "-raw", profile)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	return out.String(), nil
}

// printTable writes every metric as "workload metric median q1 q3 n unit".
func printTable(w io.Writer, results []*workloadResult) {
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %14s %3s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, r := range results {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			s, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-20s %-26s %14.6g %14.6g %14.6g %3d  %s\n", r.Name, d.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		fmt.Fprintf(w, "%-20s %-26s %14d attempted, %d failed, digest %s\n", r.Name, "runs", r.Attempted, r.Failed, r.Digest)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "%-20s %-26s %s\n", r.Name, "error", e)
		}
	}
}

// resultLine is the one-line summary: correctness, attempted and failed
// repetitions, and each metric's median. With several workloads each
// metric name is prefixed by its workload.
func resultLine(results []*workloadResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, s := range r.Metrics {
			if len(results) > 1 {
				name = r.Name + "/" + name
			}
			line.Metrics[name] = value{s.Median, s.Unit}
		}
	}
	return json.Marshal(line)
}
