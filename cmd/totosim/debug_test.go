package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"toto/internal/core"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/reqtrace"
	"toto/internal/rng"
)

// Two debug muxes must coexist in one process. The old implementation
// registered on http.DefaultServeMux, so a second session panicked with
// "http: multiple registrations"; a dedicated mux per server fixes that.
func TestTwoDebugMuxesOneProcess(t *testing.T) {
	sess := &obs.Session{}
	a := newDebugMux(sess, nil, nil, nil)
	b := newDebugMux(sess, nil, nil, nil) // would panic before the fix
	for _, mux := range []*http.ServeMux{a, b} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("pprof cmdline status = %d", rec.Code)
		}
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	sess := &obs.Session{Obs: obs.New(obs.Options{})}
	sess.Obs.Registry().Counter("plb.moves").Add(3)
	eng := alert.NewEngine(&alert.Spec{Rules: []alert.ThresholdRule{
		{Name: "nodes-down", Series: "cluster.upNodes", Op: alert.OpLT, Threshold: 14},
	}})
	mux := newDebugMux(sess, nil, eng, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "toto_plb_moves_total 3") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "EventSource(\"/stream\")") {
		t.Errorf("/ dashboard = %d (len %d)", code, len(body))
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
	if code, _ := get("/journal/tail"); code != 404 {
		t.Errorf("/journal/tail without journal = %d, want 404", code)
	}

	code, body := get("/alerts")
	if code != 200 {
		t.Fatalf("/alerts = %d", code)
	}
	var payload struct {
		Stats alert.Stats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/alerts body: %v\n%s", err, body)
	}
	if payload.Stats.Rules != 1 {
		t.Errorf("/alerts stats = %+v", payload.Stats)
	}
}

func TestDebugMuxAlertEndpointsDisabled(t *testing.T) {
	mux := newDebugMux(&obs.Session{}, nil, nil, nil)
	for _, path := range []string{"/alerts", "/stream"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s without engine = %d, want 404", path, rec.Code)
		}
	}
}

// TestDebugMuxTracesEndpoint: /traces serves the recorder's kept-trace
// ring as JSON with sampler stats, honors query filters by the outcomes'
// wire names, answers an unknown outcome with 400, and 404s when
// tracing is off.
func TestDebugMuxTracesEndpoint(t *testing.T) {
	rec, err := reqtrace.NewRecorder(&reqtrace.Spec{SampleOneIn: 1, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec.Bind(1, rng.New(1).Split("reqtrace"))
	for i := 0; i < 4; i++ {
		outcome := reqtrace.OutcomeOK
		switch i {
		case 2:
			outcome = reqtrace.OutcomeError
		case 3:
			outcome = reqtrace.OutcomeRejected
		}
		if !rec.Keep(outcome, true) {
			t.Fatalf("trace %d dropped", i)
		}
		tr := reqtrace.Trace{Time: int64(i), Service: "db-0", Outcome: outcome, Count: 5, LatencyMs: float64(10 + i)}
		tr.Add(reqtrace.SpanArrival, 0, 0)
		if outcome == reqtrace.OutcomeRejected {
			tr.LatencyMs = 0
			tr.Add(reqtrace.SpanBreaker, 0, 0)
			tr.Add(reqtrace.SpanReject, 0, 0)
		} else {
			tr.AddDispatch(0, float64(10+i), "node-1", 0.4)
		}
		rec.Record(&tr, i)
	}
	mux := newDebugMux(&obs.Session{}, nil, nil, rec)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/traces?slowest=1&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/traces = %d", resp.StatusCode)
	}
	var payload struct {
		Stats  reqtrace.Stats   `json:"stats"`
		Traces []reqtrace.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Stats.Kept != 4 {
		t.Errorf("stats = %+v, want 4 kept", payload.Stats)
	}
	if len(payload.Traces) != 2 || payload.Traces[0].LatencyMs != 12 {
		t.Errorf("slowest-first limit 2: %+v", payload.Traces)
	}
	if payload.Traces[0].OutcomeS != "error" || len(payload.Traces[0].Spans) != 2 {
		t.Errorf("trace payload lost fields: %+v", payload.Traces[0])
	}

	// Outcome filter.
	resp2, err := srv.Client().Get(srv.URL + "/traces?outcome=ok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	payload.Traces = nil
	if err := json.NewDecoder(resp2.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 2 {
		t.Errorf("outcome=ok filter returned %d traces", len(payload.Traces))
	}

	// A breaker-rejected trace is found by its wire name; a name that is
	// no outcome's is a 400 that names it, not an empty list.
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/traces?outcome=breaker-rejected", nil))
	payload.Traces = nil
	if err := json.NewDecoder(w.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || len(payload.Traces) != 1 || payload.Traces[0].OutcomeS != "breaker-rejected" ||
		payload.Traces[0].Time != 3 || len(payload.Traces[0].Spans) != 3 {
		t.Errorf("outcome=breaker-rejected: status %d, traces %+v", w.Code, payload.Traces)
	}
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/traces?outcome=rejected", nil))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"rejected"`) {
		t.Errorf("outcome=rejected: status %d, body %q; want 400 naming the value", w.Code, w.Body.String())
	}

	// Without a recorder the endpoint is a 404, like the other gated ones.
	off := newDebugMux(&obs.Session{}, nil, nil, nil)
	w = httptest.NewRecorder()
	off.ServeHTTP(w, httptest.NewRequest("GET", "/traces", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("/traces without -reqtrace = %d, want 404", w.Code)
	}
}

// TestDebugMuxAttachesToALiveRun serves the endpoints on the handles a
// run's orchestrator built, opens /stream before the run starts, and
// polls /alerts and /traces while the run goes on in another goroutine:
// the race detector checks every read the handlers make against the
// simulation's writes. /stream must deliver samples and close when the
// run returns.
func TestDebugMuxAttachesToALiveRun(t *testing.T) {
	data, err := os.ReadFile("../../scenarios/traffic-week-traced.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := core.ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sf.Days = 1
	o, err := core.NewOrchestrator(sf.Build(core.DefaultModels().Set))
	if err != nil {
		t.Fatal(err)
	}
	if o.Alerts() == nil || o.Traces() == nil {
		t.Fatal("the traced scenario built no alert engine or trace recorder")
	}
	srv := httptest.NewServer(newDebugMux(&obs.Session{}, nil, o.Alerts(), o.Traces()))
	defer srv.Close()

	// The handler subscribes before it sends the headers, so the stream
	// misses nothing of the run.
	stream, err := srv.Client().Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	samples := make(chan int, 1)
	go func() {
		n := 0
		lines := bufio.NewScanner(stream.Body)
		for lines.Scan() {
			if lines.Text() == "event: sample" {
				n++
			}
		}
		samples <- n
	}()
	ran := make(chan error, 1)
	go func() {
		_, err := o.Run()
		ran <- err
	}()

	var alerts struct {
		Stats alert.Stats `json:"stats"`
	}
	var traces struct {
		Stats reqtrace.Stats `json:"stats"`
	}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	polls := 0
	for running := true; running; polls++ {
		select {
		case err := <-ran:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		getJSON("/alerts", &alerts)
		getJSON("/traces?limit=5", &traces)
	}
	if alerts.Stats.Rules != 3 {
		t.Errorf("/alerts serves %d rules, want the scenario's 3", alerts.Stats.Rules)
	}
	if traces.Stats.Kept == 0 {
		t.Error("/traces kept no trace over the run")
	}
	select {
	case n := <-samples:
		if n == 0 {
			t.Error("/stream closed without a sample")
		}
		t.Logf("%d polls, %d stream samples", polls, n)
	case <-time.After(time.Minute):
		t.Fatal("/stream still open after the run returned")
	}
}
