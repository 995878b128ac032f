package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/trace"
)

// Digests of TrainDefaultModels, recorded before the training loops were
// rewritten to compute each value once. The model XML and every figure
// input the training run carries must stay bit-identical. The XML digest
// is that of `tototrain -seed N` stdout without its trailing newline.
var trainGoldens = []struct {
	seed            uint64
	xml, figureData string
}{
	{42, "67bee1c6de4851d89d1317c9ced01aed6fbcd94e4177ec91e59c8f31d607bc45",
		"c110c800d8b157924c7d55e832598accfc0ce213828dcc36ad66e86a2e3c2fc6"},
	{7, "fe903332ccae2208c444ea2f3e12bda020b46d7bf896d79efbbe4805ce59aa59",
		"2bef56cd4c87964798cffff880c08465410798d8deaf396aa5bbd638c24741a3"},
}

// figureDigest hashes what the §4 figures read from a training run: each
// disk trace's name, class and usage bit patterns, each edition's disk
// training outcome, and the region's hourly create and drop counts.
func figureDigest(tm *TrainedModels) string {
	h := sha256.New()
	str := func(s string) {
		putU64(h, uint64(len(s)))
		h.Write([]byte(s))
	}
	floats := func(xs []float64) {
		putU64(h, uint64(len(xs)))
		for _, x := range xs {
			putU64(h, math.Float64bits(x))
		}
	}
	strs := func(ss []string) {
		putU64(h, uint64(len(ss)))
		for _, s := range ss {
			str(s)
		}
	}
	putU64(h, uint64(len(tm.DiskTraces)))
	for _, tr := range tm.DiskTraces {
		str(tr.DB)
		putU64(h, uint64(tr.Class))
		floats(tr.UsageGB)
	}
	for _, e := range slo.Editions() {
		dt := tm.Disk[e]
		floats(dt.SteadyDeltas)
		putU64(h, math.Float64bits(dt.SteadyFraction))
		putU64(h, uint64(dt.TotalDBs))
		strs(dt.InitialDBs)
		strs(dt.RapidDBs)
		for _, hours := range [][]int{counts(tm.Region.Creates[e]), counts(tm.Region.Drops[e])} {
			putU64(h, uint64(len(hours)))
			for _, c := range hours {
				putU64(h, uint64(c))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func counts(hours []trace.HourCount) []int {
	out := make([]int, len(hours))
	for i, hc := range hours {
		out[i] = hc.Count
	}
	return out
}

// TestTrainDefaultModelsGolden pins the training pipeline's output: the
// deployable model XML and the figure inputs at two seeds.
func TestTrainDefaultModelsGolden(t *testing.T) {
	for _, g := range trainGoldens {
		tm := TrainDefaultModels(g.seed)
		data, err := tm.Set.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != g.xml {
			t.Errorf("seed %d: model XML digest %s, want %s", g.seed, got, g.xml)
		}
		if got := figureDigest(tm); got != g.figureData {
			t.Errorf("seed %d: figure-input digest %s, want %s", g.seed, got, g.figureData)
		}
	}
}

// TestDefaultModelsAreTheSeed42Training pins the embedded model XML to
// the seed-42 training: its bytes carry the digest TrainDefaultModels(42)
// encodes to, and the set decoded from it encodes back to those bytes.
// `go generate ./internal/core` re-records the file.
func TestDefaultModelsAreTheSeed42Training(t *testing.T) {
	sum := sha256.Sum256(defaultModelsXML)
	if got, want := hex.EncodeToString(sum[:]), trainGoldens[0].xml; got != want { // trainGoldens[0] is seed 42
		t.Errorf("default_models.xml digest %s, want the seed-42 digest %s", got, want)
	}
	data, err := DefaultModels().Set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, defaultModelsXML) {
		t.Error("the decoded default set does not encode back to default_models.xml")
	}
}

// TestDefaultModelsKeepOnlyWhatSimulationsRead pins the shared value's
// contract: the deployed model set and nothing of the training behind it.
func TestDefaultModelsKeepOnlyWhatSimulationsRead(t *testing.T) {
	tm := DefaultModels()
	if tm.Set == nil {
		t.Fatal("DefaultModels holds no model set")
	}
	if tm.Region != nil || tm.Counts != nil || tm.Disk != nil || tm.DiskTraces != nil {
		t.Errorf("DefaultModels keeps training inputs: region %v, %d count editions, %d disk editions, %d disk traces",
			tm.Region != nil, len(tm.Counts), len(tm.Disk), len(tm.DiskTraces))
	}
	if DefaultModels() != tm {
		t.Error("DefaultModels decoded twice")
	}
}

var trainSink *TrainedModels

// BenchmarkTrainDefaultModels times one full §4 training run: what
// `go generate ./internal/core` and the §4 figures pay, and no simulating
// process does.
func BenchmarkTrainDefaultModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trainSink = TrainDefaultModels(42)
	}
}

var setSink *models.ModelSet

// BenchmarkDecodeDefaultModels times the decode of the embedded model
// XML, the set-up DefaultModels costs a simulating process once.
func BenchmarkDecodeDefaultModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set, err := models.UnmarshalModelSetXML(defaultModelsXML)
		if err != nil {
			b.Fatal(err)
		}
		setSink = set
	}
}
