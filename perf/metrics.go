package main

import "slices"

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off and reported per workload as the median over its measured
// children. Times are normalized to the reference kernel.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_days_per_s", "sim-day/s", "higher"},
	{"cpu_s_per_sim_day", "s/sim-day", "lower"},
	{"alloc_mb_per_sim_day", "MB/sim-day", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// countNames are the program's own exact counters (see repOutput.counts).
var countNames = []string{"creates", "drops", "redirects", "unplanned_failovers",
	"planned_moves", "naming_reads", "traffic_arrivals", "traffic_batches",
	"traffic_dispatched", "retries", "hedges", "traces_kept", "invariant_checks",
	"alerts_fired", "slow_node_detections", "journal_events", "journal_annotations"}

// perLayer are the metrics of single layers: CPU shares from the traced
// child, and counters, memory and timed public calls from the untraced
// children.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "%", "lower"})
	}
	for _, f := range fabricFiles {
		defs = append(defs, metricDef{"cpu.fabric." + f, "%", "lower"})
	}
	for _, f := range trafficFiles {
		defs = append(defs, metricDef{"cpu.traffic." + f, "%", "lower"})
	}
	for _, o := range owners {
		defs = append(defs, metricDef{"owner." + o, "%", "lower"})
	}
	defs = append(defs, metricDef{"trace.overhead", "ratio", "lower"})
	for _, c := range countNames {
		defs = append(defs, metricDef{"count." + c, "count", "lower"})
	}
	return append(defs,
		metricDef{"count.journal_mb", "MB", "lower"},
		metricDef{"mallocs_per_sim_day", "1/sim-day", "lower"},
		metricDef{"gc_cycles_per_sim_day", "1/sim-day", "lower"},
		metricDef{"gc_pause_ms_per_sim_day", "ms/sim-day", "lower"},
		metricDef{"setup.train_s", "s", "lower"},
		metricDef{"setup.scenario_s", "s", "lower"},
		metricDef{"journal.close_s", "s", "lower"},
		metricDef{"fleet.speedup", "ratio", "higher"},
		metricDef{"fleet.cell_s_p50", "s", "lower"},
		metricDef{"fleet.cell_s_max", "s", "lower"},
		metricDef{"bench.ref_s", "s", "lower"},
		metricDef{"raw.sim_days_per_s", "sim-day/s", "higher"},
	)
}()

// endToEndValues are one measured child's end-to-end metrics, its times
// normalized by the set's reference time ref.
func endToEndValues(c *childReport, ref float64) map[string]float64 {
	return map[string]float64{
		"setup_s":              normalize(c.SetupS, ref),
		"sim_days_per_s":       c.SimDays / normalize(c.WallS, ref),
		"cpu_s_per_sim_day":    normalize(c.CPUS, ref) / c.SimDays,
		"alloc_mb_per_sim_day": float64(c.AllocBytes) / 1e6 / c.SimDays,
		"peak_rss_mb":          float64(c.PeakRSSKB) * 1024 / 1e6,
	}
}

// layerValues are one untraced child's per-layer counters, memory and
// timed public calls. bench.ref_s is the child's own mean kernel time.
func layerValues(c *childReport, ref float64) map[string]float64 {
	v := map[string]float64{}
	for _, name := range countNames {
		v["count."+name] = c.Counts["count."+name]
	}
	var p50, longest float64
	if len(c.CellS) > 0 {
		p50, longest = median(c.CellS), slices.Max(c.CellS)
	}
	v["count.journal_mb"] = float64(c.JournalBytes) / 1e6
	v["mallocs_per_sim_day"] = float64(c.Mallocs) / c.SimDays
	v["gc_cycles_per_sim_day"] = float64(c.GCCycles) / c.SimDays
	v["gc_pause_ms_per_sim_day"] = float64(c.GCPauseNs) / 1e6 / c.SimDays
	v["setup.train_s"] = normalize(c.TrainS, ref)
	v["setup.scenario_s"] = normalize(c.ScenarioS, ref)
	v["journal.close_s"] = normalize(c.CloseS, ref)
	v["fleet.speedup"] = c.Speedup
	v["fleet.cell_s_p50"] = normalize(p50, ref)
	v["fleet.cell_s_max"] = normalize(longest, ref)
	v["bench.ref_s"] = (c.Ref1S + c.Ref2S) / 2
	v["raw.sim_days_per_s"] = c.SimDays / c.WallS
	return v
}
