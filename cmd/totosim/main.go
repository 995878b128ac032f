// Command totosim runs one declaratively specified benchmark scenario —
// the paper's "reliable and repeatable specification of a benchmarking
// scenario of arbitrary scale, complexity, and time-length" (§1) — and
// dumps its telemetry as CSV.
//
// Usage:
//
//	totosim                          # default 14-node 110% 2-day run
//	totosim -scenario run.json       # declarative scenario file
//	totosim -density 1.4 -days 6     # flag overrides
//	totosim -out results/            # write samples/failovers/nodes CSVs
//	totosim -topology 4x3 -upgrade 12   # 4 fault / 3 upgrade domains,
//	                                    # domain upgrade at hour 12
//	totosim -traffic traffic.json    # request-level traffic plane
//	                                 # (bare spec or a scenario's "traffic" section)
//
// Scenario file format (JSON; all fields optional):
//
//	{
//	  "name": "densify-120",
//	  "nodes": 14,
//	  "density": 1.2,
//	  "days": 6,
//	  "bootstrapHours": 6,
//	  "population": {"premiumBC": 33, "standardGP": 187},
//	  "seeds": {"population": 101, "models": 202, "plb": 303, "bootstrap": 404},
//	  "modelXML": "models.xml"
//	}
//
// modelXML points at a file produced by tototrain (or edited by hand —
// the XML is the declarative surface); without it the default trained
// models are used.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"toto/internal/chaos"
	"toto/internal/core"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/obs/timeseries"
	"toto/internal/slo"
	"toto/internal/telemetry"
	"toto/internal/traffic"
)

func main() {
	scenarioPath := flag.String("scenario", "", "JSON scenario file")
	density := flag.Float64("density", 0, "override density factor")
	days := flag.Float64("days", 0, "override measured window in days")
	outDir := flag.String("out", "", "write telemetry CSVs to this directory")
	chaosPath := flag.String("chaos", "", "JSON chaos spec file injected over the measured window")
	chaosSeed := flag.Uint64("chaos-seed", 0, "override the chaos spec's seed (nonzero)")
	trafficPath := flag.String("traffic", "", "JSON traffic spec file: drive request-level traffic over the measured window")
	reqtraceOn := flag.Bool("reqtrace", false, "trace every simulated request with tail-based sampling (needs a traffic spec; /traces on -http)")
	httpAddr := flag.String("http", "", "serve a live debug endpoint on this address (dashboard at /, pprof, /metrics, /journal/tail, /alerts, SSE /stream)")
	topology := flag.String("topology", "", "stripe nodes over fault and upgrade domains, as FDxUD (e.g. 4x3)")
	upgradeStart := flag.Float64("upgrade", 0, "schedule a safety-checked domain upgrade this many hours into the measured window (needs -topology or a scenario topology section)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "totosim:", err)
		os.Exit(1)
	}
	var jw *journal.Writer
	if obsFlags.JournalOut != "" {
		jw, err = journal.Create(obsFlags.JournalOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "totosim:", err)
			os.Exit(1)
		}
	}
	fail := func(err error) {
		_ = jw.Close()   // journal is valid up to the failure point
		_ = sess.Close() // flush partial observability artifacts
		fmt.Fprintln(os.Stderr, "totosim:", err)
		os.Exit(1)
	}

	// An interrupted run must leave readable artifacts: flush and close
	// the journal and the trace/metrics session before dying. The journal
	// writer is mutex-guarded, so closing it from the signal goroutine
	// while the simulation appends is safe — appends after Close are
	// dropped, everything before is flushed.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	var debugSrv atomic.Pointer[http.Server]
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "totosim: interrupted; flushing artifacts")
		if srv := debugSrv.Load(); srv != nil {
			// Finish in-flight debug requests (bounded) before dying so a
			// concurrent /metrics scrape is not cut mid-body.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = srv.Shutdown(ctx)
			cancel()
		}
		_ = jw.Close()
		_ = sess.Close()
		os.Exit(130)
	}()

	spec := &core.ScenarioFile{}
	if *scenarioPath != "" {
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fail(err)
		}
		spec, err = core.ParseScenarioFile(data)
		if err != nil {
			fail(err)
		}
	}
	if spec.Name == "" {
		spec.Name = "totosim"
	}
	if *density != 0 {
		spec.Density = *density
	}
	if *days != 0 {
		spec.Days = *days
	}
	if *chaosPath != "" {
		data, err := os.ReadFile(*chaosPath)
		if err != nil {
			fail(err)
		}
		cs, err := chaos.ParseSpec(core.ScenarioSection(data, "chaos"))
		if err != nil {
			fail(err)
		}
		spec.Chaos = cs
	}
	if *trafficPath != "" {
		data, err := os.ReadFile(*trafficPath)
		if err != nil {
			fail(err)
		}
		ts, err := traffic.ParseSpec(core.ScenarioSection(data, "traffic"))
		if err != nil {
			fail(err)
		}
		spec.Traffic = ts
	}
	if *reqtraceOn {
		if spec.Traffic == nil {
			fail(fmt.Errorf("-reqtrace given without a traffic spec (-traffic or scenario \"traffic\" section)"))
		}
		if spec.Traffic.Reqtrace == nil {
			spec.Traffic.Reqtrace = &reqtrace.Spec{} // defaults: 1-in-1000, ring 512
		}
	}
	if *chaosSeed != 0 {
		if spec.Chaos == nil {
			fail(fmt.Errorf("-chaos-seed given without a chaos spec (-chaos or scenario \"chaos\" section)"))
		}
		spec.Chaos.Seed = *chaosSeed
	}
	if obsFlags.AlertsPath != "" {
		as, err := alert.LoadSpec(obsFlags.AlertsPath)
		if err != nil {
			fail(err)
		}
		spec.Alerts = as // flag overrides the scenario's "alerts" section
	}

	var set *models.ModelSet
	if spec.ModelXML != "" {
		data, err := os.ReadFile(spec.ModelXML)
		if err != nil {
			fail(err)
		}
		set, err = models.UnmarshalModelSetXML(data)
		if err != nil {
			fail(err)
		}
	} else {
		set = core.DefaultModels().Set
	}

	sc := spec.Build(set)
	if *topology != "" {
		fd, ud, err := parseTopology(*topology)
		if err != nil {
			fail(err)
		}
		sc.FaultDomains, sc.UpgradeDomains = fd, ud
	}
	if *upgradeStart > 0 {
		// Pacing beyond the start hour (per-domain duration, retry,
		// timeout, headroom) comes from the scenario file's "upgrade"
		// section or the fabric defaults.
		if sc.DomainUpgrade == nil {
			sc.DomainUpgrade = &core.DomainUpgrade{}
		}
		sc.DomainUpgrade.Start = time.Duration(*upgradeStart * float64(time.Hour))
	}
	sc.Obs = sess.Obs
	var series *timeseries.Store
	if jw != nil {
		jw.Meta(sc.Name, sc.Start, map[string]string{
			"tool":    "totosim",
			"density": fmt.Sprintf("%g", sc.Density),
			"nodes":   fmt.Sprintf("%d", sc.Nodes),
			"days":    fmt.Sprintf("%g", sc.Duration.Hours()/24),
		})
		sc.Journal = jw
		resolution := sc.NodeTelemetryInterval
		if resolution <= 0 {
			resolution = 10 * time.Minute
		}
		// Capacity covers the whole run at the sampling resolution (plus
		// bootstrap), so nothing ages out of the rings mid-run.
		capacity := int((sc.BootstrapDuration+sc.Duration)/resolution) + 2
		series = timeseries.NewStore(resolution, capacity)
		sc.SeriesStore = series
	}
	// A traced run builds its recorder up front so the debug endpoint's
	// /traces handler can attach to the kept-trace ring before the run.
	var rec *reqtrace.Recorder
	if sc.Traffic != nil && sc.Traffic.Reqtrace != nil {
		rec, err = reqtrace.NewRecorder(sc.Traffic.Reqtrace)
		if err != nil {
			fail(err)
		}
		sc.TraceRecorder = rec
	}
	// With -http the alert engine is built here (even with zero rules) so
	// the dashboard's /alerts and /stream endpoints can attach before the
	// run starts; the orchestrator binds it to the cluster and sim clock.
	// Without -http, rule-bearing scenarios get their engine from the
	// orchestrator directly.
	if *httpAddr != "" {
		eng := alert.NewEngine(sc.Alerts)
		sc.AlertEngine = eng
		if jw != nil {
			jw.EnableTail()
		}
		debugSrv.Store(serveDebug(*httpAddr, newDebugMux(sess, jw, eng, rec)))
	}
	res, err := core.Run(sc)
	if err != nil {
		fail(err)
	}
	if jw != nil {
		end := sc.Start.Add(sc.BootstrapDuration + sc.Duration)
		if sess.Obs != nil {
			jw.Snapshot(sess.Obs.Registry().Snapshot(), end)
		}
		if err := jw.Close(); err != nil {
			fail(err)
		}
		if err := series.WriteFile(timeseries.PathFor(obsFlags.JournalOut)); err != nil {
			fail(err)
		}
		events, annotations := jw.Counts()
		fmt.Printf("journal: %d events, %d annotations -> %s (+ %s)\n",
			events, annotations, obsFlags.JournalOut, timeseries.PathFor(obsFlags.JournalOut))
	}
	if err := sess.Close(); err != nil {
		fail(err)
	}

	fmt.Printf("scenario %q: %d nodes, density %.0f%%, %.1f-day window\n",
		sc.Name, sc.Nodes, sc.Density*100, sc.Duration.Hours()/24)
	fmt.Printf("bootstrap: %d BC + %d GP databases, %.0f cores reserved (%.0f free), disk %.1f%%\n",
		res.InitialCounts[slo.PremiumBC], res.InitialCounts[slo.StandardGP],
		res.BootstrapReservedCores, res.BootstrapFreeCores, 100*res.BootstrapDiskUtil)
	fmt.Printf("churn: %d creates, %d drops, %d redirects (first at hour %d)\n",
		res.Creates, res.Drops, len(res.Redirects), res.FirstRedirectHour)
	fmt.Printf("final: %.0f cores reserved, disk %.1f%%, %d failovers (%.0f cores moved)\n",
		res.FinalReservedCores, 100*res.FinalDiskUtil, len(res.Failovers), res.TotalFailedOverCores())
	fmt.Printf("moves: %d planned, %d unplanned failovers (planned downtime %s)\n",
		res.PlannedMoves, res.UnplannedFailovers, res.PlannedDowntime)
	fmt.Printf("revenue: gross $%.0f, penalty $%.0f, adjusted $%.0f (%d breached of %d DBs)\n",
		res.Revenue.Gross, res.Revenue.Penalty, res.Revenue.Adjusted,
		res.Revenue.Breached, res.Revenue.Databases)
	if sc.FaultDomains > 0 {
		fmt.Printf("quorum: %d losses, %s unavailable (topology %dx%d)\n",
			res.QuorumLosses, res.QuorumDowntime.Round(time.Second), sc.FaultDomains, sc.UpgradeDomains)
	}
	if a := res.Alerts; a != nil {
		fmt.Printf("alerts: %d rules, %d fired, %d resolved, %d still active\n",
			a.Rules, a.Fired, a.Resolved, a.Active)
	}
	if u := res.Upgrade; u != nil {
		fmt.Printf("upgrade: %s, %d/%d domains, %d stalls, %d replicas evacuated (%d stranded)\n",
			u.State, u.DomainsCompleted, u.DomainsTotal, u.Stalls, u.Evacuated, u.Stranded)
	}
	if st := res.Chaos; st != nil {
		fmt.Printf("chaos: %d faults scheduled, %d crashes (%d skipped), %d restarts, %d domain outages\n",
			st.FaultsScheduled, st.Crashes, st.CrashesSkipped, st.Restarts, st.DomainOutages)
		fmt.Printf("chaos: injected %d build failures, %d lost reports, %d naming errors\n",
			st.BuildFailuresInjected, st.ReportsLostInjected, st.NamingErrorsInjected)
		fmt.Printf("chaos: %d invariant checks, %d violations\n",
			st.InvariantChecks, len(st.InvariantViolations))
		for _, v := range st.InvariantViolations {
			fmt.Printf("chaos: VIOLATION: %s\n", v)
		}
	}
	if st := res.Traffic; st != nil {
		fmt.Printf("traffic: %d arrivals, %d dispatched, %d shed, %d breaker-rejected (%d opens, %d closes)\n",
			st.Arrivals, st.Dispatched, st.Shed, st.BreakerRejected, st.BreakerOpens, st.BreakerCloses)
		fmt.Printf("traffic: %d retries granted, %d denied, %d errors, error rate %.4f\n",
			st.Retries, st.RetriesDenied, st.Errors, st.ErrorRate)
		fmt.Printf("traffic: latency p50 %.1fms p99 %.1fms p999 %.1fms, %d/%d hours over the %gms p99 SLO\n",
			st.P50Ms, st.P99Ms, st.P999Ms, st.SLOViolationHours, st.HoursObserved, st.SLOP99Ms)
		if st.Hedges > 0 || st.HedgesDenied > 0 {
			fmt.Printf("hedges: %d granted (%d won the race), %d denied by the hedge budget\n",
				st.Hedges, st.HedgeWins, st.HedgesDenied)
		}
		if rt := st.Reqtrace; rt != nil {
			fmt.Printf("reqtrace: %d trace groups, %d kept (%d failures, %d exemplars, %d sampled), %d dropped\n",
				rt.Considered, rt.Kept, rt.KeptErrors+rt.KeptSheds+rt.KeptRejected,
				rt.KeptExemplar, rt.KeptSampled, rt.Dropped)
		}
	}
	if sn := res.SlowNodes; sn != nil {
		fmt.Printf("slow-nodes: %d detections, %d quarantines, %d drain moves, %d recoveries\n",
			sn.Detections, sn.Quarantines, sn.DrainMoves, sn.Recoveries)
	}

	if *outDir == "" {
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fail(err)
		}
	}
	write("samples.csv", func(f *os.File) error { return telemetry.WriteSamplesCSV(f, res.Samples) })
	write("failovers.csv", func(f *os.File) error { return telemetry.WriteFailoversCSV(f, res.Failovers) })
	write("nodes.csv", func(f *os.File) error { return telemetry.WriteNodeSamplesCSV(f, res.NodeSamples) })
	fmt.Printf("telemetry written to %s\n", *outDir)
}

// parseTopology reads -topology's FDxUD: two non-negative decimal counts
// joined by one lower-case x, with nothing before, between or after.
func parseTopology(s string) (fd, ud int, err error) {
	a, b, ok := strings.Cut(s, "x")
	fd, errFD := strconv.Atoi(a)
	ud, errUD := strconv.Atoi(b)
	if !ok || errFD != nil || errUD != nil || fd < 0 || ud < 0 {
		return 0, 0, fmt.Errorf("bad -topology %q, want FDxUD (e.g. 4x3)", s)
	}
	return fd, ud, nil
}
