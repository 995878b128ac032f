package models

import (
	"crypto/sha256"
	"sync"
)

// sharedSetCap is how many distinct blobs DecodeShared remembers. A
// decoded default set keeps about 7 KB live; a process that cycles
// through more sets than this re-parses the older ones instead of
// growing.
const sharedSetCap = 8

// sharedSet is one memoized parse, keyed by the SHA-256 of its bytes.
// once makes concurrent first readers of a blob wait for a single parse.
type sharedSet struct {
	sum  [sha256.Size]byte
	once sync.Once
	set  *ModelSet
	err  error
}

// sharedSets holds the most recently used blobs' parses, newest first.
var sharedSets struct {
	mu     sync.Mutex
	recent []*sharedSet
}

// DecodeShared returns UnmarshalModelSetXML(data), parsed once per
// distinct blob for the whole process: every caller passing the same
// bytes gets the same *ModelSet, or the same error, for as long as the
// blob stays among the sharedSetCap most recently used. It keys the memo
// by the bytes' SHA-256 and keeps no copy of them. The returned set is
// shared by every cluster in the process, concurrent ones included, so
// callers must treat it as read-only; UnmarshalModelSetXML returns a
// fresh set the caller owns.
func DecodeShared(data []byte) (*ModelSet, error) {
	e := sharedEntry(sha256.Sum256(data))
	e.once.Do(func() { e.set, e.err = UnmarshalModelSetXML(data) })
	return e.set, e.err
}

// sharedEntry returns the memo entry for sum, creating it (and evicting
// the least recently used one when full), and moves it to the front.
func sharedEntry(sum [sha256.Size]byte) *sharedSet {
	sharedSets.mu.Lock()
	defer sharedSets.mu.Unlock()
	recent := sharedSets.recent
	i := 0
	for i < len(recent) && recent[i].sum != sum {
		i++
	}
	var e *sharedSet
	if i < len(recent) {
		e = recent[i]
	} else {
		e = &sharedSet{sum: sum}
		if len(recent) < sharedSetCap {
			recent = append(recent, nil)
		}
		i = len(recent) - 1
	}
	copy(recent[1:i+1], recent[:i])
	recent[0] = e
	sharedSets.recent = recent
	return e
}
