package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

// Log levels, least to most severe.
const (
	LevelDebug Level = iota - 1
	LevelInfo        // zero value: Options{} logs at info
	LevelWarn
	LevelError
	LevelOff
)

// String returns the level's fixed-width tag.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO "
	case LevelWarn:
		return "WARN "
	case LevelError:
		return "ERROR"
	default:
		return "OFF  "
	}
}

// lockedWriter serializes line writes from forked loggers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Logger is a leveled logger whose timestamps come from the simulation
// clock, replacing ad-hoc prints in instrumented subsystems. A nil
// *Logger is a no-op, so callers never need to guard log statements.
type Logger struct {
	out *lockedWriter
	min Level
	now func() time.Time
}

func newLogger(w io.Writer, min Level) *Logger {
	return &Logger{out: &lockedWriter{w: w}, min: min}
}

// fork shares the output and level but carries its own clock binding.
func (l *Logger) fork() *Logger {
	if l == nil {
		return nil
	}
	return &Logger{out: l.out, min: l.min}
}

func (l *Logger) setNow(now func() time.Time) {
	if l != nil {
		l.now = now
	}
}

// Enabled reports whether a message at level lv would be written.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

func (l *Logger) logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	ts := time.Now()
	if l.now != nil {
		ts = l.now()
	}
	l.out.mu.Lock()
	defer l.out.mu.Unlock()
	fmt.Fprintf(l.out.w, "%s %s %s\n", ts.UTC().Format(time.RFC3339), lv, fmt.Sprintf(format, args...))
}

// Infof logs at info level with a sim timestamp.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level with a sim timestamp.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }
