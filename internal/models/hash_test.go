package models

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// oracleBucketSeed and oracleHash01 are the fmt-based formulas the inline
// FNV-1a hashing replaced; every simulated byte depends on the two
// agreeing.
func oracleBucketSeed(seed uint64, db string, bucket int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, db, bucket)
	return h.Sum64()
}

func oracleHash01(seed uint64, db, salt string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, db, salt)
	return float64(h.Sum64()>>11) / (1 << 53)
}

func TestDBKeyMatchesFmtOracle(t *testing.T) {
	seeds := []uint64{0, 1, 7, 1 << 32, math.MaxUint64}
	dbs := []string{"", "db-gp-000042", "init-bc-0007", "数据库-é", "a/b"}
	buckets := []int64{math.MinInt64, -1, 0, 1, 71, 1_000_000, 1_000_071, 2_000_000, 2_000_431, math.MaxInt64}
	for k := int64(0); k < 5; k++ {
		buckets = append(buckets, -1000-k)
	}
	salts := []string{"initial", "rapid", "cpu-idle", ""}
	for _, seed := range seeds {
		for _, db := range dbs {
			key := newDBKey(seed, db)
			for _, b := range buckets {
				if got, want := key.bucketSeed(b), oracleBucketSeed(seed, db, b); got != want {
					t.Errorf("bucketSeed(%d, %q, %d) = %#x, want %#x", seed, db, b, got, want)
				}
			}
			for _, salt := range salts {
				if got, want := key.hash01(salt), oracleHash01(seed, db, salt); got != want {
					t.Errorf("hash01(%d, %q, %q) = %v, want %v", seed, db, salt, got, want)
				}
			}
		}
	}
}

// TestModelNextAllocatesNothing pins the per-report evaluation path at
// zero allocations: it runs for every replica on every report round.
func TestModelNextAllocatesNothing(t *testing.T) {
	disk := testDiskModel(true)
	disk.Initial = &InitialGrowthModel{Probability: 1, Duration: 30 * time.Minute, Bins: []GrowthBin{{LoGB: 10, HiGB: 20}}}
	disk.Rapid = &RapidGrowthModel{
		Probability: 1, SteadyDur: time.Hour, IncreaseDur: time.Hour,
		SteadyBetweenDur: time.Hour, DecreaseDur: time.Hour,
		IncreaseBins: []GrowthBin{{LoGB: 50, HiGB: 90}},
	}
	mem := &MemoryModel{Target: disk.Steady, WarmRate: 0.5, ColdStartGB: 1, ReportInterval: 20 * time.Minute}
	cpu := &CPUModel{TargetFraction: disk.Steady, IdleFraction: 0.1, ReportInterval: 20 * time.Minute}
	ctx := EvalContext{DB: "db-gp-000042", Created: monday, Now: monday.Add(20 * time.Minute), Prev: 100, MaxGB: 1000, Seed: 7}
	for name, next := range map[string]func(EvalContext) float64{
		"DiskUsageModel.Next": disk.Next,
		"MemoryModel.Next":    mem.Next,
		"CPUModel.Next":       cpu.Next,
	} {
		if allocs := testing.AllocsPerRun(100, func() { next(ctx) }); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
