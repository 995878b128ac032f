// Package timeseries is a fixed-resolution, bounded-memory metric store
// sampled on the simulation clock. Each series is a ring buffer of
// float64 samples at one resolution — per-node utilization for every
// enforced metric, per-node replica counts, and cluster-wide rates — so
// a month-long simulated run costs the same memory as a day. The store
// serializes to a JSON sidecar next to the event journal; totoscope
// renders heatmaps and sparklines from it without replaying the run.
package timeseries

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"toto/internal/obs"
)

// Series is one named metric stream: a ring buffer holding the most
// recent Capacity samples at a fixed resolution.
type Series struct {
	name string
	vals []float64
	next int
	n    int
	// dropped counts samples that aged out of the ring.
	dropped int
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Push appends one sample, evicting the oldest when full.
func (s *Series) Push(v float64) {
	if s.n == len(s.vals) {
		s.dropped++
	} else {
		s.n++
	}
	s.vals[s.next] = v
	s.next = (s.next + 1) % len(s.vals)
}

// Values returns the retained samples, oldest first.
func (s *Series) Values() []float64 {
	out := make([]float64, s.n)
	start := (s.next - s.n + len(s.vals)) % len(s.vals)
	for i := 0; i < s.n; i++ {
		out[i] = s.vals[(start+i)%len(s.vals)]
	}
	return out
}

// Len returns the number of retained samples.
func (s *Series) Len() int { return s.n }

// Last returns the most recent sample, or false when the series is empty.
func (s *Series) Last() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.vals[(s.next-1+len(s.vals))%len(s.vals)], true
}

// TailSum sums the most recent n samples without allocating, walking the
// ring backwards. It returns the sum and how many samples were actually
// present (less than n while the series is still filling). The alert
// engine calls this every evaluation tick, so it must stay allocation
// free.
func (s *Series) TailSum(n int) (float64, int) {
	if n > s.n {
		n = s.n
	}
	sum := 0.0
	idx := s.next
	for i := 0; i < n; i++ {
		idx--
		if idx < 0 {
			idx += len(s.vals)
		}
		sum += s.vals[idx]
	}
	return sum, n
}

// Dropped returns how many samples aged out of the ring.
func (s *Series) Dropped() int { return s.dropped }

// Summary is a series' order statistics over its retained window.
type Summary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary computes the series' order statistics.
func (s *Series) Summary() Summary {
	vals := s.Values()
	if len(vals) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		P50:   quantile(sorted, 0.50),
		P90:   quantile(sorted, 0.90),
		P99:   quantile(sorted, 0.99),
	}
}

// quantile reads the q-th quantile from sorted samples (nearest-rank
// with linear interpolation).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Store holds the run's series, keyed by name, all at one resolution.
type Store struct {
	mu         sync.Mutex
	resolution time.Duration
	capacity   int
	start      time.Time
	series     map[string]*Series
}

// NewStore builds a store whose series sample every resolution and
// retain the most recent capacity samples each.
func NewStore(resolution time.Duration, capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{
		resolution: resolution,
		capacity:   capacity,
		series:     make(map[string]*Series),
	}
}

// Resolution returns the sampling period.
func (st *Store) Resolution() time.Duration { return st.resolution }

// SetStart records the simulated time of the first sample.
func (st *Store) SetStart(t time.Time) {
	st.mu.Lock()
	st.start = t
	st.mu.Unlock()
}

// Series returns the named series, creating it on first use.
func (st *Store) Series(name string) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok {
		s = &Series{name: name, vals: make([]float64, st.capacity)}
		st.series[name] = s
	}
	return s
}

// Lookup returns the named series without creating it, so probes (alert
// rules referencing a series that never got a sample) do not pollute the
// sidecar with empty series.
func (st *Store) Lookup(name string) (*Series, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	return s, ok
}

// Names returns every series name, sorted.
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.series))
	for name := range st.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// seriesJSON and storeJSON are the sidecar file schema.
type seriesJSON struct {
	Name    string    `json:"name"`
	Dropped int       `json:"dropped,omitempty"`
	Summary Summary   `json:"summary"`
	Values  []float64 `json:"values"`
}

type storeJSON struct {
	ResolutionSec float64      `json:"resolutionSec"`
	StartUnixNano int64        `json:"startUnixNano,omitempty"`
	Series        []seriesJSON `json:"series"`
}

// WriteJSON serializes the store, series sorted by name, each with its
// summary precomputed so readers need not reimplement quantiles.
func (st *Store) WriteJSON(w io.Writer) error {
	names := st.Names()
	out := storeJSON{ResolutionSec: st.resolution.Seconds()}
	st.mu.Lock()
	if !st.start.IsZero() {
		out.StartUnixNano = st.start.UnixNano()
	}
	st.mu.Unlock()
	for _, name := range names {
		s := st.Series(name)
		out.Series = append(out.Series, seriesJSON{
			Name:    name,
			Dropped: s.Dropped(),
			Summary: s.Summary(),
			Values:  s.Values(),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile serializes the store to path through obs.WriteFile, so a
// crash mid-write never leaves a torn sidecar.
func (st *Store) WriteFile(path string) error { return obs.WriteFile(path, st.WriteJSON) }

// ReadFile loads a sidecar written by WriteFile.
func ReadFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in storeJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("timeseries: parsing %s: %w", path, err)
	}
	capacity := 1
	for _, s := range in.Series {
		if len(s.Values) > capacity {
			capacity = len(s.Values)
		}
	}
	st := NewStore(time.Duration(in.ResolutionSec*float64(time.Second)), capacity)
	if in.StartUnixNano != 0 {
		st.SetStart(time.Unix(0, in.StartUnixNano))
	}
	for _, s := range in.Series {
		dst := st.Series(s.Name)
		for _, v := range s.Values {
			dst.Push(v)
		}
		dst.dropped = s.Dropped
	}
	return st, nil
}

// PathFor derives the sidecar path from a journal path:
// run.jsonl.gz → run.series.json.
func PathFor(journalPath string) string {
	p := strings.TrimSuffix(journalPath, ".gz")
	p = strings.TrimSuffix(p, ".jsonl")
	return p + ".series.json"
}
