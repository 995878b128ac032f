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
// Service Fabric's Naming Service (§3.3.1). Toto stores the serialized
// model XML in it as bytes (Put), and the persisted-metric protocol
// (§3.3.2) round-trips previously reported disk loads through it as
// numbers (PutFloat, Float), so a newly promoted primary on a different
// node sees the same disk usage the old primary reported without a text
// encoding in between. A number entry still reads as its shortest decimal
// text through Get and Decoded.
//
// Every write bumps a monotonically increasing version so readers can
// detect changes cheaply. Readers that parse a value (the model XML) go
// through Decoded, which decodes once per entry version and hands every
// later reader the same result. The store is safe for concurrent use: in
// the deployed system every node's RgManager reads it independently.
type NamingService struct {
	mu      sync.RWMutex
	entries map[string]namingEntry
	version int64
	reads   int64
	decodes map[string]int64

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
	num     float64 // written by PutFloat, when number is set
	number  bool
	version int64

	// Decoded's memo for this version. A write replaces the whole entry and
	// Delete removes it, so a memo never outlives the bytes it came from.
	memoized  bool
	decoded   any
	decodeErr error
}

// NewNamingService returns an empty metastore.
func NewNamingService() *NamingService {
	return &NamingService{entries: make(map[string]namingEntry), decodes: make(map[string]int64)}
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
	return n.install(key, namingEntry{num: v, number: true})
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
// is a copy. A number entry reads as its shortest decimal text.
func (n *NamingService) Get(key string) (value []byte, version int64, ok bool) {
	e, ok := n.read(key)
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), e.bytes()...), e.version, true
}

// Float returns the number stored under key by PutFloat. It counts as one
// read, exactly like Get. ok is false when key is absent or holds bytes
// written by Put.
func (n *NamingService) Float(key string) (v float64, ok bool) {
	e, ok := n.read(key)
	if !ok || !e.number {
		return 0, false
	}
	return e.num, true
}

// bytes returns the entry's value as Get and Decoded see it: the bytes
// Put stored, or a number's shortest decimal form that parses back to it
// (the bytes fmt's %g writes). The result may alias the stored bytes, so
// callers must not modify it.
func (e *namingEntry) bytes() []byte {
	if e.number {
		return strconv.AppendFloat(nil, e.num, 'g', -1, 64)
	}
	return e.value
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

// Decoded returns the value under key as decode parses it. It counts as
// one read, exactly like Get, but decodes at most once per entry version:
// the first reader after a write runs decode on the bytes Get would
// return, and every later reader of that version gets the same result,
// error included. decode must be a pure function of the bytes, every
// reader of a key must pass the same decoder, and since all readers share
// one decoded value they must treat it as read-only.
func Decoded[T any](n *NamingService, key string, decode func([]byte) (T, error)) (value T, ok bool, err error) {
	e, ok := n.read(key)
	if !ok {
		return value, false, nil
	}
	if e.memoized {
		value, _ = e.decoded.(T)
		return value, true, e.decodeErr
	}
	// Decode outside the lock; the entry's bytes are never mutated, and
	// the memo is installed only if no write replaced the entry meanwhile.
	value, err = decode(e.bytes())
	n.mu.Lock()
	n.decodes[key]++
	if cur, ok := n.entries[key]; ok && cur.version == e.version {
		cur.memoized, cur.decoded, cur.decodeErr = true, value, err
		n.entries[key] = cur
	}
	n.mu.Unlock()
	return value, true, err
}

// Decodes returns how many times Decoded ran a decoder on key: once per
// written version of it that was read through Decoded.
func (n *NamingService) Decodes(key string) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.decodes[key]
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

// Reads returns the cumulative number of Get, Float and Decoded calls
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
