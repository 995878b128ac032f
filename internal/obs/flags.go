package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Flags is the shared observability flag surface of the Toto CLIs
// (totobench, totosim, tototrain): trace/metrics artifact outputs plus
// pprof profiling hooks.
type Flags struct {
	TraceOut   string
	MetricsOut string
	JournalOut string
	CPUProfile string
	MemProfile string
	LogLevel   string
	// AlertsPath names an alert-rule JSON file: a bare alert spec, or a
	// scenario file whose "alerts" section is used. Each CLI parses it
	// with alert.ParseSpec (kept out of this package so obs stays
	// dependency-light), and it overrides a scenario file's "alerts"
	// section.
	AlertsPath string
}

// BindFlags registers the observability flags on fs (typically
// flag.CommandLine) and returns the destination struct.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome/Perfetto trace-event file (.json array, .jsonl lines)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a metrics-registry JSON snapshot to this file")
	fs.StringVar(&f.JournalOut, "journal-out", "", "write the causal event journal to this file (.jsonl, .jsonl.gz); a .series.json sidecar is written alongside")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&f.LogLevel, "log-level", "", "sim-time log level on stderr: debug, info, warn, error (default off)")
	fs.StringVar(&f.AlertsPath, "alerts", "", "load alert rules from this JSON file: a bare alert spec or a scenario's \"alerts\" section (overrides the -scenario file's \"alerts\" section)")
	return f
}

// Enabled reports whether tracing or metrics collection was requested —
// when false, Session.Obs stays nil and instrumentation is a no-op. A
// journal counts: journaled runs embed a final metrics snapshot, which
// needs a live registry.
func (f *Flags) Enabled() bool {
	return f.TraceOut != "" || f.MetricsOut != "" || f.JournalOut != "" || f.LogLevel != ""
}

// Session is a started observability session: the Obs handle to thread
// into scenarios (nil when no trace/metrics output was requested, so
// profiling-only runs stay uninstrumented) plus the profiling state.
type Session struct {
	Obs   *Obs
	flags *Flags
	cpu   *os.File
}

// Start begins the session: creates the Obs layer if requested and
// starts the CPU profile if requested. Always returns a usable *Session;
// Close must be called (not deferred past os.Exit) to flush artifacts.
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f}
	if f.Enabled() {
		level := LevelOff
		switch strings.ToLower(f.LogLevel) {
		case "":
		case "debug":
			level = LevelDebug
		case "info":
			level = LevelInfo
		case "warn":
			level = LevelWarn
		case "error":
			level = LevelError
		default:
			return nil, fmt.Errorf("obs: unknown -log-level %q", f.LogLevel)
		}
		s.Obs = New(Options{LogWriter: os.Stderr, LogLevel: level})
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		s.cpu = file
	}
	return s, nil
}

// Close stops profiling and writes every requested artifact. Nil-safe.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		keep(s.cpu.Close())
		s.cpu = nil
	}
	if s.flags.TraceOut != "" && s.Obs != nil {
		keep(WriteFile(s.flags.TraceOut, func(f io.Writer) error {
			if strings.HasSuffix(s.flags.TraceOut, ".jsonl") {
				return s.Obs.Tracer().WriteTraceJSONL(f)
			}
			return s.Obs.Tracer().WriteTraceJSON(f)
		}))
		if d := s.Obs.Tracer().Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "obs: trace buffer overflow, %d spans dropped\n", d)
		}
	}
	if s.flags.MetricsOut != "" && s.Obs != nil {
		keep(WriteFile(s.flags.MetricsOut, func(f io.Writer) error {
			return s.Obs.Registry().WriteJSON(f)
		}))
	}
	if s.flags.MemProfile != "" {
		runtime.GC() // materialize up-to-date heap statistics
		keep(WriteFile(s.flags.MemProfile, pprof.WriteHeapProfile))
	}
	return first
}

// WriteFile writes an artifact atomically: the content lands in a temp
// file in the destination directory and is renamed into place only after
// a successful write and close, so an interrupted run (SIGINT, crash,
// full disk) never leaves a torn half-artifact where a previous good one
// stood. The artifact is readable by all (0644), not private as the temp
// file is created.
func WriteFile(path string, fn func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if err = f.Chmod(0o644); err == nil {
		err = fn(f)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
