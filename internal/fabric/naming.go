package fabric

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"toto/internal/obs"
)

// NamingService is a highly available key-value metastore, modeled on
// Service Fabric's Naming Service (§3.3.1). An entry holds bytes (Put,
// Get), a number (PutFloat, Float) or a value (PutValue, Value). Toto
// stores its validated model set in it as a value, which every reader
// takes without a text encoding in between, and the persisted-metric
// protocol (§3.3.2) round-trips previously reported disk loads through it
// as numbers, so a newly promoted primary on a different node sees the
// same disk usage the old primary reported. A number entry still reads as
// its shortest decimal text through Get.
//
// Every write bumps a monotonically increasing version so readers can
// detect changes cheaply. The store is safe for concurrent use: in the
// deployed system every node's RgManager reads it independently.
type NamingService struct {
	mu      sync.RWMutex
	entries map[string]namingEntry
	version int64
	reads   int64

	// registry counters (nil-safe no-ops when observability is off)
	cReads        *obs.Counter
	cWrites       *obs.Counter
	cWriteRetries *obs.Counter
	cWriteDrops   *obs.Counter

	// fault injection (set by the owning cluster; nil = writes never
	// fail). backoffFn computes the jittered backoff delay charged for a
	// failed attempt, letting the cluster account it without the store
	// owning a clock or RNG.
	injector     FaultInjector
	retry        retryPolicy
	backoffFn    func(attempt int) time.Duration
	writeRetries int64
	writeDrops   int64
}

type namingEntry struct {
	value   []byte  // written by Put
	num     float64 // written by PutFloat
	v       any     // written by PutValue
	kind    entryKind
	version int64
}

// entryKind names the write that stored an entry.
type entryKind uint8

const (
	bytesEntry entryKind = iota
	numberEntry
	valueEntry
)

// NewNamingService returns an empty metastore.
func NewNamingService() *NamingService {
	return &NamingService{entries: make(map[string]namingEntry)}
}

// instrument attaches registry counters for reads, writes, write
// retries, and dropped writes. Called by the owning cluster; nil
// counters keep the store uninstrumented.
func (n *NamingService) instrument(reads, writes, writeRetries, writeDrops *obs.Counter) {
	n.cReads = reads
	n.cWrites = writes
	n.cWriteRetries = writeRetries
	n.cWriteDrops = writeDrops
}

// setInjector installs the fault injector consulted on every write,
// with the bounded-retry policy and backoff accounting hook.
func (n *NamingService) setInjector(fi FaultInjector, pol retryPolicy, backoffFn func(attempt int) time.Duration) {
	n.injector = fi
	n.retry = pol
	n.backoffFn = backoffFn
}

// Put stores value under key and returns the new entry version. The value
// is copied, so callers may reuse their buffer. Under fault injection the
// write is retried with exponential backoff up to the retry budget; a
// write that exhausts it is dropped and Put returns 0 — readers re-read
// the store every refresh interval, so a dropped model write is repaired
// by the writer's next refresh rather than by blocking the simulation.
func (n *NamingService) Put(key string, value []byte) int64 {
	if !n.admitWrite(key) {
		return 0
	}
	return n.install(key, namingEntry{value: append([]byte(nil), value...)})
}

// PutFloat stores the number v under key and returns the new entry
// version. It is the same write as Put, with the same fault injection,
// retries, drops and counters; only Float reads v back as a number.
func (n *NamingService) PutFloat(key string, v float64) int64 {
	if !n.admitWrite(key) {
		return 0
	}
	return n.install(key, namingEntry{num: v, kind: numberEntry})
}

// PutValue stores v under key and returns the new entry version. It is
// the same write as Put, with the same fault injection, retries, drops and
// counters; only Value reads v back. The store keeps v itself, not a
// copy, and hands it to every reader, so the caller passes a value that
// nothing will modify again.
func (n *NamingService) PutValue(key string, v any) int64 {
	if !n.admitWrite(key) {
		return 0
	}
	return n.install(key, namingEntry{v: v, kind: valueEntry})
}

// admitWrite runs one write to key past the fault injector, retrying with
// backoff up to the retry budget, and reports whether an attempt landed.
// A write that exhausts the budget is counted as dropped.
func (n *NamingService) admitWrite(key string) bool {
	if n.injector == nil {
		return true
	}
	attempts := n.retry.maxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if !n.injector.NamingWriteFails(key, attempt) {
			return true
		}
		if attempt < attempts {
			n.cWriteRetries.Inc()
			n.mu.Lock()
			n.writeRetries++
			n.mu.Unlock()
			if n.backoffFn != nil {
				n.backoffFn(attempt)
			}
		}
	}
	n.cWriteDrops.Inc()
	n.mu.Lock()
	n.writeDrops++
	n.mu.Unlock()
	return false
}

// install stores e under key as the store's next version and returns it.
func (n *NamingService) install(key string, e namingEntry) int64 {
	n.cWrites.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.version++
	e.version = n.version
	n.entries[key] = e
	return n.version
}

// WriteRetries returns the cumulative number of write attempts that
// failed and were retried.
func (n *NamingService) WriteRetries() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.writeRetries
}

// WriteDrops returns the number of writes abandoned after exhausting the
// retry budget.
func (n *NamingService) WriteDrops() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.writeDrops
}

// CurrentVersion returns the store's global write version.
func (n *NamingService) CurrentVersion() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.version
}

// MaxEntryVersion returns the largest per-entry version currently stored
// (0 when empty). Structurally it can never exceed CurrentVersion; the
// continuous invariant checker asserts exactly that.
func (n *NamingService) MaxEntryVersion() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var max int64
	for _, e := range n.entries {
		if e.version > max {
			max = e.version
		}
	}
	return max
}

// Get returns the value and version stored under key. The returned slice
// is a copy. A number entry reads as its shortest decimal text, the bytes
// fmt's %g writes; ok is false when key is absent or holds a value
// written by PutValue.
func (n *NamingService) Get(key string) (value []byte, version int64, ok bool) {
	e, ok := n.read(key)
	switch {
	case !ok || e.kind == valueEntry:
		return nil, 0, false
	case e.kind == numberEntry:
		return strconv.AppendFloat(nil, e.num, 'g', -1, 64), e.version, true
	}
	return append([]byte(nil), e.value...), e.version, true
}

// Float returns the number stored under key by PutFloat. It counts as one
// read, exactly like Get. ok is false when key is absent or holds another
// kind of entry.
func (n *NamingService) Float(key string) (v float64, ok bool) {
	e, ok := n.read(key)
	if !ok || e.kind != numberEntry {
		return 0, false
	}
	return e.num, true
}

// Value returns the value stored under key by PutValue. It counts as one
// read, exactly like Get. ok reports whether key exists; v is nil when it
// holds bytes or a number. Every reader gets the one stored value and
// must not modify it.
func (n *NamingService) Value(key string) (v any, ok bool) {
	e, ok := n.read(key)
	return e.v, ok
}

// read counts one read and returns the entry under key.
func (n *NamingService) read(key string) (namingEntry, bool) {
	n.cReads.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reads++
	e, ok := n.entries[key]
	return e, ok
}

// Delete removes key. Deleting an absent key is a no-op.
func (n *NamingService) Delete(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.entries, key)
}

// Keys returns all keys with the given prefix in sorted order.
func (n *NamingService) Keys(prefix string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for k := range n.entries {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Reads returns the cumulative number of Get, Float and Value calls
// served — the load the metastore absorbs from polling readers (each
// node's RgManager re-reads the models every refresh interval, §3.3.1).
func (n *NamingService) Reads() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.reads
}

// Len returns the number of stored entries.
func (n *NamingService) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.entries)
}
