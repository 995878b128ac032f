package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and the share by which it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain prints, for each (workload, metric) pair of two result
// files, both sides' medians, quartiles and N and a verdict, with the
// bounds of the BENCHMARK.json in the working directory (the repository
// root). It exits 1 on any regression or any rise in the share of failed
// repetitions.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare A.json B.json")
		return 2
	}
	var spec benchSpec
	var a, b setFile
	for _, r := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &spec}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(r.path, r.v); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 2
		}
	}
	if regressed := compareSets(os.Stdout, spec, &a, &b); regressed {
		return 1
	}
	return 0
}

func compareSets(w io.Writer, spec benchSpec, a, b *setFile) (regressed bool) {
	fmt.Fprintf(w, "%-20s %-26s %12s %12s %12s %3s | %12s %12s %12s %3s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "n", "B median", "B q1", "B q3", "n", "verdict")
	row := func(wl, metric string, sa, sb summary, v string) {
		fmt.Fprintf(w, "%-20s %-26s %12.6g %12.6g %12.6g %3d | %12.6g %12.6g %12.6g %3d  %s\n",
			wl, metric, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, v)
	}
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *workloadResult) bool { return r.Name == ra.Name })
		if i < 0 {
			fmt.Fprintf(w, "%-20s only in A\n", ra.Name)
			continue
		}
		rb := b.Workloads[i]

		fa, fb := failedShare(ra), failedShare(rb)
		v := "unchanged"
		switch {
		case fb > fa:
			v, regressed = "regressed", true
		case fb < fa:
			v = "improved"
		}
		row(ra.Name, "failed_share", summarize("fraction", []float64{fa}), summarize("fraction", []float64{fb}), v)

		for _, m := range spec.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(sa, sb, m.Better, m.Bound)
			regressed = regressed || v == "regressed"
			row(ra.Name, m.Name, sa, sb, v)
		}
		for _, m := range spec.PerLayer {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if okA && okB {
				row(ra.Name, m.Name, sa, sb, "-")
			}
		}
	}
	return regressed
}

func failedShare(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// verdict judges B against A. A change beyond the bound is a regression
// or an improvement; within it the metric is unchanged — unless the
// run-to-run spread of either side is wider than the bound, in which case
// it is unresolved, except when every run of B beats (or, for a
// regression, loses to) every run of A.
func verdict(a, b summary, better string, bound float64) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "unresolved"
	}
	gain := (b.Median - a.Median) / a.Median
	if better == "lower" {
		gain = -gain
	}
	beats := func(x, y []float64) bool { // every x better than every y
		if better == "lower" {
			return slices.Max(x) < slices.Min(y)
		}
		return slices.Min(x) > slices.Max(y)
	}
	wide := max(a.spread(), b.spread()) > bound
	switch {
	case gain < -bound && (!wide || beats(a.Values, b.Values)):
		return "regressed"
	case gain > bound && (!wide || beats(b.Values, a.Values)):
		return "improved"
	case wide && !beats(b.Values, a.Values):
		return "unresolved"
	}
	return "unchanged"
}
