package traffic_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/obs/timeseries"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/traffic"
)

var harnessStart = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func harnessCapacity() map[fabric.MetricName]float64 {
	return map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}
}

// dayOpts configures one run of the harness day.
type dayOpts struct {
	spec   *traffic.Spec     // the engine's spec; nil runs no engine (the no-traffic control)
	outage bool              // crash node-1..node-5 at noon, restart them an hour later
	detect bool              // enable the fabric's slow-node detector
	slow   bool              // attach grayfailSlowFn as the engine's fail-slow view
	labels bool              // label every 4th service Premium/BC
	w      *journal.Writer   // journal the day when set
	store  *timeseries.Store // the engine's series store when set
	// afterTick, when set, runs right after every engine tick, at the
	// tick's timestamp.
	afterTick func(eng *traffic.Engine, now time.Time)
}

// runDay drives a 10-node cluster hosting 48 services through 24
// simulated hours. The disk loads are sized so the correlated outage
// (five nodes crashing at noon, restarting an hour later) exceeds the
// survivors' capacity: replicas strand on dead nodes, services lose every
// intact copy, and the traffic plane must shed load, trip breakers, and
// ration retries. Everything is seeded, so one set of options maps to
// exactly one journal byte stream.
func runDay(tb testing.TB, o dayOpts) (traffic.Stats, fabric.SlowNodeStats) {
	tb.Helper()
	clock := simclock.New(harnessStart)
	cfg := fabric.DefaultConfig()
	cfg.PLBSeed = 7
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.45
	c := fabric.NewCluster(clock, 10, harnessCapacity(), cfg)
	if o.detect {
		c.EnableSlowNodeDetection(fabric.SlowNodeConfig{
			EWMAAlpha:     0.2,
			Threshold:     1.75,
			MinSamples:    8,
			Sustain:       20 * time.Minute,
			Probation:     4 * time.Hour,
			DrainAfter:    20 * time.Minute,
			MaxDrainMoves: 4,
			DrainHeadroom: 0.05,
		})
	}
	if o.w != nil {
		attrs := map[string]string{}
		if o.spec != nil {
			attrs["seed"] = fmt.Sprint(o.spec.Seed)
		}
		o.w.Meta("traffic-day", harnessStart, attrs)
		o.w.Attach(c)
	}
	c.Start()

	src := rng.New(0x7A7A)
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("db-%d", i)
		replicas, diskLo, diskHi := 2, 200.0, 500.0
		var labels map[string]string
		if i%4 == 0 {
			replicas, diskLo, diskHi = 4, 500, 800
			if o.labels {
				labels = map[string]string{"edition": "Premium/BC"}
			}
		}
		loads := map[fabric.MetricName]float64{fabric.MetricDiskGB: src.UniformRange(diskLo, diskHi)}
		if _, err := c.CreateServiceWithLoads(name, replicas, 2, labels, loads); err != nil {
			tb.Fatalf("create %s: %v", name, err)
		}
	}
	clock.Every(20*time.Minute, func(time.Time) {
		for _, svc := range c.LiveServices() {
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep, fabric.MetricDiskGB, rep.Load(fabric.MetricDiskGB)+src.UniformRange(0, 2.2))
				_ = c.ReportLoad(rep, fabric.MetricMemoryGB, src.UniformRange(1, 8))
			}
		}
	})

	var eng *traffic.Engine
	if o.spec != nil {
		var err error
		if eng, err = traffic.NewEngine(clock, c, o.spec, o.store, obs.New(obs.Options{})); err != nil {
			tb.Fatalf("NewEngine: %v", err)
		}
		if o.slow {
			eng.SetSlowFactor(grayfailSlowFn)
		}
		eng.Start(harnessStart)
		if o.afterTick != nil {
			// Registered after the engine's ticker, so at equal timestamps
			// it fires after the tick.
			clock.Every(eng.TickEvery(), func(now time.Time) { o.afterTick(eng, now) })
		}
	}

	if o.outage {
		crashed := []string{"node-1", "node-2", "node-3", "node-4", "node-5"}
		clock.At(harnessStart.Add(12*time.Hour), func(time.Time) {
			for _, id := range crashed {
				_, _, _ = c.CrashNode(id)
			}
		})
		clock.At(harnessStart.Add(13*time.Hour), func(time.Time) {
			for _, id := range crashed {
				_ = c.RestartNode(id)
			}
		})
	}

	clock.RunUntil(harnessStart.Add(24 * time.Hour))
	c.Stop()
	if eng == nil {
		return traffic.Stats{}, c.SlowNodeStats()
	}
	return eng.Stats(), c.SlowNodeStats()
}

// trafficKind reports whether an annotation kind belongs to the traffic
// plane.
func trafficKind(kind string) bool {
	switch kind {
	case traffic.KindRequestShed, traffic.KindBreakerOpen, traffic.KindBreakerHalfOpen,
		traffic.KindBreakerClosed, traffic.KindRetryBudgetExhausted, traffic.KindRequestErrors:
		return true
	}
	return false
}

// TestSameSeedIdenticalJournals is the plane's determinism contract: two
// runs of the same spec produce byte-identical journals — request sheds,
// breaker transitions, and retry denials included — and a different
// traffic seed produces a different request stream without perturbing
// the fabric's event stream.
func TestSameSeedIdenticalJournals(t *testing.T) {
	run := func(seed uint64) []byte {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		runDay(t, dayOpts{spec: &traffic.Spec{Seed: seed}, outage: true, w: w})
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return buf.Bytes()
	}
	a := run(42)
	b := run(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different journals")
	}
	c := run(43)
	if bytes.Equal(a, c) {
		t.Fatal("different traffic seeds produced identical journals")
	}

	// The fabric's own event stream must be identical across traffic
	// seeds: the plane observes the cluster, it never feeds randomness
	// back into it.
	entriesA, err := journal.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	entriesC, err := journal.Read(bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	hashA, nA := journal.EventStreamHash(entriesA)
	hashC, nC := journal.EventStreamHash(entriesC)
	if hashA != hashC || nA != nC {
		t.Errorf("traffic seed changed the fabric event stream: %s/%d vs %s/%d",
			hashA, nA, hashC, nC)
	}
}

// TestHourlySeriesAddUpToRunTotals: each hourly flush pushes what the
// run's arrivals, sheds and failures gained since the previous flush, so
// over a day of whole hours the three series add up to the run totals as
// the last flush saw them. That flush, at the day's closing instant,
// runs before the engine tick of the same instant (its event was
// scheduled an hour earlier), so those totals are the ones after the
// day's second-to-last tick: the closing tick's requests are in Stats
// but in no hour.
func TestHourlySeriesAddUpToRunTotals(t *testing.T) {
	store := timeseries.NewStore(time.Hour, 48)
	var atFlush, last traffic.Stats // Stats after the day's last two ticks
	st, _ := runDay(t, dayOpts{spec: &traffic.Spec{Seed: 42}, outage: true, store: store,
		afterTick: func(eng *traffic.Engine, _ time.Time) { atFlush, last = last, eng.Stats() }})
	if last.Arrivals != st.Arrivals {
		t.Fatalf("the last tick's Stats (%d arrivals) are not the run's (%d)", last.Arrivals, st.Arrivals)
	}
	if atFlush.Shed == 0 || atFlush.Failed <= atFlush.Shed {
		t.Fatalf("the outage day must shed, and fail beyond shedding: %+v", atFlush)
	}
	for _, c := range []struct {
		series string
		want   int64
	}{
		{traffic.SeriesRequests, atFlush.Arrivals},
		{traffic.SeriesShed, atFlush.Shed},
		{traffic.SeriesErrors, atFlush.Failed},
	} {
		s := store.Series(c.series)
		sum, hours := s.TailSum(48)
		if hours != 24 || s.Dropped() != 0 {
			t.Errorf("%s holds %d hours (%d dropped), want 24", c.series, hours, s.Dropped())
		}
		if sum != float64(c.want) {
			t.Errorf("%s adds up to %v, the totals at the last flush are %d", c.series, sum, c.want)
		}
	}
}

// TestRetryStormBudgetBound is the issue's retry-storm acceptance: under
// a correlated outage that downs half the cluster, total granted retries
// stay within the retry budget (refilled only by fresh arrivals, so no
// amplification), and every shed request is journaled rather than
// silently dropped.
func TestRetryStormBudgetBound(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	st, _ := runDay(t, dayOpts{spec: &traffic.Spec{Seed: 7}, outage: true, w: w})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	t.Logf("stats: %+v", st)

	if st.Arrivals == 0 || st.Dispatched == 0 {
		t.Fatal("no traffic flowed")
	}
	// The budget bound: tokens only ever accrue at BudgetRatio per fresh
	// arrival, so granted retries can never exceed that fraction of the
	// offered load — even with every backend down.
	budget := float64(st.Arrivals) * 0.2 // default BudgetRatio
	if float64(st.Retries) > budget {
		t.Errorf("retries %d exceed budget %.0f: retry amplification", st.Retries, budget)
	}
	// The storm must actually have pressed the budget and the admission
	// plane: an outage of half the cluster with no denial or shedding
	// means the chaos didn't bite.
	if st.RetriesDenied == 0 {
		t.Error("outage never exhausted a retry budget")
	}
	if st.Shed == 0 {
		t.Error("outage shed no load despite halved admission capacity")
	}
	if st.BreakerOpens == 0 {
		t.Error("no breaker opened during the outage")
	}
	if st.BreakerCloses == 0 {
		t.Error("no breaker recovered after the restart")
	}
	if st.Errors == 0 {
		t.Error("no request errors during the outage")
	}

	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sheds are journaled, not silent: the annotations must account for
	// every shed request, and breaker lifecycle annotations must match
	// the engine's counters one-for-one.
	var shedSum, deniedSum float64
	opens, halfOpens, closes := 0, 0, 0
	idx := journal.Index(entries)
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation {
			continue
		}
		switch e.Kind {
		case traffic.KindRequestShed:
			shedSum += e.Value
		case traffic.KindRetryBudgetExhausted:
			deniedSum += e.Value
		case traffic.KindBreakerOpen:
			opens++
		case traffic.KindBreakerHalfOpen:
			halfOpens++
		case traffic.KindBreakerClosed:
			closes++
		}
		// Every shed and breaker transition must chain to the incident
		// that explains it — here, the injected crashes.
		switch e.Kind {
		case traffic.KindRequestShed, traffic.KindBreakerOpen,
			traffic.KindBreakerHalfOpen, traffic.KindBreakerClosed:
			if root := journal.RootCause(idx, e); root != "crash" {
				t.Errorf("%s at %s (service %s) has root cause %q, want crash",
					e.Kind, e.Time().Format("15:04"), e.Service, root)
			}
		}
	}
	if int64(shedSum) != st.Shed {
		t.Errorf("journaled sheds %.0f != engine count %d", shedSum, st.Shed)
	}
	if int64(deniedSum) != st.RetriesDenied {
		t.Errorf("journaled retry denials %.0f != engine count %d", deniedSum, st.RetriesDenied)
	}
	if opens != st.BreakerOpens || halfOpens != st.BreakerHalfOpens || closes != st.BreakerCloses {
		t.Errorf("journaled breaker lifecycle %d/%d/%d != engine %d/%d/%d",
			opens, halfOpens, closes, st.BreakerOpens, st.BreakerHalfOpens, st.BreakerCloses)
	}
}

// TestQuietDayNoFailures pins graceful degradation's complement: with no
// faults injected, the admission plane clears the full diurnal curve —
// nothing is shed, no breaker ever opens, and the error rate stays
// negligible (mid-build failover windows are the only failure source).
func TestQuietDayNoFailures(t *testing.T) {
	st, _ := runDay(t, dayOpts{spec: &traffic.Spec{Seed: 7}})
	t.Logf("stats: %+v", st)
	if st.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if st.Shed != 0 {
		t.Errorf("quiet day shed %d requests", st.Shed)
	}
	if st.BreakerOpens != 0 || st.BreakerRejected != 0 {
		t.Errorf("quiet day tripped breakers: opens=%d rejected=%d", st.BreakerOpens, st.BreakerRejected)
	}
	if st.ErrorRate > 0.01 {
		t.Errorf("quiet-day error rate %.4f > 1%%", st.ErrorRate)
	}
	if st.HoursObserved != 24 {
		t.Errorf("observed %d hours, want 24", st.HoursObserved)
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms || st.P999Ms < st.P99Ms {
		t.Errorf("quantiles not ordered: p50=%.2f p99=%.2f p999=%.2f", st.P50Ms, st.P99Ms, st.P999Ms)
	}
}

// TestNodeTableFreshWithinTick checks that the node table a tick fills
// at its start still describes every live node when the tick ends: on
// the outage day, whose crashes and restarts take nodes down and up, and
// on the gray-failure day, whose slow node is routed around, hedged
// against, fed to the detector and quarantined. Both days must put the
// table through the states they are chosen for.
func TestNodeTableFreshWithinTick(t *testing.T) {
	days := []struct {
		name                 string
		opts                 dayOpts
		wantDown, wantSlowed bool
	}{
		{"outage", dayOpts{spec: &traffic.Spec{Seed: 11}, outage: true}, true, false},
		{"grayfail", dayOpts{spec: mitigatedSpec(29), detect: true, slow: true, labels: true}, true, true},
	}
	for _, d := range days {
		t.Run(d.name, func(t *testing.T) {
			ticks, unroutable, slowed := 0, 0, 0
			d.opts.afterTick = func(eng *traffic.Engine, now time.Time) {
				u, s, err := eng.CheckNodeTable(now)
				if err != nil {
					t.Fatal(err)
				}
				ticks, unroutable, slowed = ticks+1, unroutable+u, slowed+s
			}
			runDay(t, d.opts)
			t.Logf("%d ticks checked: %d unroutable and %d slowed node entries", ticks, unroutable, slowed)
			if ticks != 24*60 {
				t.Errorf("checked %d ticks, want %d", ticks, 24*60)
			}
			if d.wantDown && unroutable == 0 {
				t.Error("no tick saw an unroutable node")
			}
			if d.wantSlowed && slowed == 0 {
				t.Error("no tick saw a slowed node")
			}
		})
	}
}
