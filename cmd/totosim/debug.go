package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
)

//go:embed dashboard.html
var dashboardHTML []byte

// newDebugMux builds the live debug endpoint on a dedicated ServeMux.
// Using a private mux (instead of http.DefaultServeMux) matters: two
// sessions in one process — a test driving two sims, or a library
// embedding totosim's server — would panic on duplicate registration
// against the global mux, and the default mux also silently exposes any
// handlers other packages registered. pprof is therefore mounted
// explicitly rather than via the net/http/pprof blank-import side effect.
func newDebugMux(sess *obs.Session, jw *journal.Writer, eng *alert.Engine, rec *reqtrace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if sess.Obs == nil {
			http.Error(w, "metrics registry not enabled", http.StatusNotFound)
			return
		}
		obs.MetricsHandler(sess.Obs.Registry()).ServeHTTP(w, r)
	})

	mux.HandleFunc("/journal/tail", func(w http.ResponseWriter, r *http.Request) {
		if jw == nil {
			http.Error(w, "journal not enabled (-journal-out)", http.StatusNotFound)
			return
		}
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			fmt.Sscanf(q, "%d", &n)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		for _, e := range jw.Tail(n) {
			_ = enc.Encode(e)
		}
	})

	// /traces searches the recorder's ring of kept request traces:
	// ?service= &outcome=ok|error|shed|breaker-rejected &min_ms= &limit=
	// and &slowest=1 (latency-sorted instead of newest-first). JSON span
	// trees, newest last — ready for the dashboard's drill-down. An
	// outcome that is none of these is a 400.
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "request tracing not enabled (-reqtrace)", http.StatusNotFound)
			return
		}
		q := reqtrace.Query{
			Service: r.URL.Query().Get("service"),
			Outcome: r.URL.Query().Get("outcome"),
			Slowest: r.URL.Query().Get("slowest") == "1",
			Limit:   50,
		}
		if _, ok := reqtrace.ParseOutcome(q.Outcome); q.Outcome != "" && !ok {
			http.Error(w, fmt.Sprintf("unknown outcome %q: want ok, error, shed or breaker-rejected", q.Outcome), http.StatusBadRequest)
			return
		}
		if v := r.URL.Query().Get("min_ms"); v != "" {
			fmt.Sscanf(v, "%g", &q.MinMs)
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			fmt.Sscanf(v, "%d", &q.Limit)
		}
		w.Header().Set("Content-Type", "application/json")
		traces := rec.Snapshot(q)
		st := rec.LiveStats()
		_ = json.NewEncoder(w).Encode(struct {
			Stats  reqtrace.Stats   `json:"stats"`
			Traces []reqtrace.Trace `json:"traces"`
		}{st, traces})
	})

	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		if eng == nil {
			http.Error(w, "alert engine not enabled (-http starts one)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		st := eng.Stats()
		_ = json.NewEncoder(w).Encode(struct {
			Stats   alert.Stats        `json:"stats"`
			Active  []alert.Transition `json:"active"`
			History []alert.Transition `json:"history"`
		}{st, eng.Active(), eng.History()})
	})

	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		if eng == nil {
			http.Error(w, "alert engine not enabled (-http starts one)", http.StatusNotFound)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		// Buffered subscription with drop-on-overflow: the sim goroutine
		// never blocks on a slow client; a laggard just misses samples.
		ch, cancel := eng.Subscribe(256)
		defer cancel()
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, open := <-ch:
				if !open {
					return // engine stopped: run is over
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(dashboardHTML)
	})

	return mux
}

// serveDebug starts the debug server on its own mux. The returned server
// carries header/idle timeouts so a stuck or idle client cannot pin a
// connection forever, and is shut down gracefully on interrupt. No write
// timeout: /stream is a long-lived SSE response.
func serveDebug(addr string, mux *http.ServeMux) *http.Server {
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "totosim: -http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "totosim: debug endpoint on http://%s (dashboard at /, pprof at /debug/pprof, /metrics, /journal/tail, /alerts, /stream)\n", addr)
	return srv
}
