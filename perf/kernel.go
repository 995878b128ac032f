package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// R0 is the reference kernel's time, in seconds, that every normalized
// time is expressed against: a reported time is wall × R0 / ref_s. It was
// fixed once, from the kernel's median on the machine that recorded the
// first baseline, and must never be edited: changing it rescales every
// recorded time.
const R0 = 0.5

// normalize converts a wall-clock time into the reference machine's
// seconds, given the kernel's time (ref_s) on the machine that took it.
func normalize(wallS, refS float64) float64 { return wallS * R0 / refS }

// kernelFloats is 16 MiB of float64: larger than the last-level cache, so
// the kernel feels the same memory-bandwidth contention the simulator does.
const kernelFloats = 2 << 20

// refKernel runs a fixed single-threaded, stdlib-only workload and
// returns its wall time and a digest of its result. The mix — an
// xorshift fill, map inserts, a sort and sha256 over the sorted bytes —
// mirrors the simulator's own mix of arithmetic, hashing, allocation and
// pointer chasing, so a slower or busier machine slows both alike.
func refKernel() (seconds float64, sum [sha256.Size]byte) {
	start := time.Now()
	xs := make([]float64, kernelFloats)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x>>11) / (1 << 53)
	}
	m := make(map[uint64]float64)
	for i := 0; i < len(xs); i += 4 {
		m[math.Float64bits(xs[i])] = xs[i+1]
	}
	for i := 1; i < len(xs); i += 4 {
		xs[i] += m[math.Float64bits(xs[i-1])]
	}
	sort.Float64s(xs)
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, v := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	h.Sum(sum[:0])
	return time.Since(start).Seconds(), sum
}
