package core

import (
	_ "embed"
	"sync"
	"time"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/trace"
	"toto/internal/trainer"
)

// defaultRings is the modeled region size: the trainer scales
// region-level create/drop rates down to one tenant ring by this count
// (§4.1.1).
const defaultRings = 18

// DefaultRegionConfig is the synthetic region used by the default model
// set: the trace package's defaults with the drop factor tuned so the
// ring's population grows at a rate that exhausts the 100%-density free
// cores within roughly the first experiment day, matching the redirect
// timeline of Figure 10.
func DefaultRegionConfig(seed uint64) trace.RegionConfig {
	cfg := trace.DefaultRegionConfig(seed)
	cfg.Rings = defaultRings
	cfg.DropFactor = 0.35
	return cfg
}

// TrainedModels is a §4 training run: the synthetic region and disk
// traces, the per-edition count and disk trainings, and the assembled
// deployable ModelSet.
//
// TrainDefaultModels returns a full run. DefaultModels returns only Set,
// decoded from the deployed model XML (the paper's cluster sees only
// that file); Region, DiskTraces, Counts and Disk are nil. Figures 6-9
// and the §4.2.2 candidate comparison read the training inputs, so they
// need a run from TrainDefaultModels.
type TrainedModels struct {
	Region     *trace.Region
	DiskTraces []trace.DBTrace
	Counts     map[slo.Edition]map[trainer.CountKind]*trainer.CountTraining
	Disk       map[slo.Edition]*trainer.DiskTraining
	Set        *models.ModelSet
}

// TrainDefaultModels generates default synthetic production traces and
// runs the full training pipeline over them.
func TrainDefaultModels(seed uint64) *TrainedModels {
	tm := &TrainedModels{
		Region:     trace.GenerateRegion(DefaultRegionConfig(seed)),
		DiskTraces: trace.GenerateDiskTraces(trace.DefaultDiskTraceConfig(seed + 1)),
		Counts:     make(map[slo.Edition]map[trainer.CountKind]*trainer.CountTraining),
		Disk:       make(map[slo.Edition]*trainer.DiskTraining),
	}

	set := models.NewModelSet(seed)
	set.RingShare = 1 / float64(tm.Region.Config.Rings)
	for _, e := range slo.Editions() {
		tm.Counts[e] = map[trainer.CountKind]*trainer.CountTraining{
			trainer.KindCreate: trainer.TrainCounts(tm.Region.Creates[e], e, trainer.KindCreate),
			trainer.KindDrop:   trainer.TrainCounts(tm.Region.Drops[e], e, trainer.KindDrop),
		}
		set.Create[e] = tm.Counts[e][trainer.KindCreate].Model
		set.Drop[e] = tm.Counts[e][trainer.KindDrop].Model

		dt := trainer.TrainDisk(tm.DiskTraces, e, trainer.DefaultDiskTrainingOptions())
		tm.Disk[e] = dt
		set.Disk[e] = dt.Model
	}

	set.SLOMix = ChurnSLOMix()
	set.NewDBDiskGB = map[slo.Edition]models.GrowthBin{
		slo.StandardGP: {LoGB: 0.5, HiGB: 24},
		slo.PremiumBC:  {LoGB: 60, HiGB: 300},
	}

	// Memory models are the paper's §5.5 extension: modest warm-toward-
	// target behaviour per edition, cold after failover.
	for _, e := range slo.Editions() {
		target := models.NewHourlyNormal()
		mean := 4.0
		if e == slo.PremiumBC {
			mean = 12.0
		}
		for w := 0; w < 2; w++ {
			for h := 0; h < 24; h++ {
				diurnal := 0.6 + 0.4*businessHours(h)
				target.Set(models.HourBucket{Weekend: w == 1, Hour: h},
					models.NormalParam{Mean: mean * diurnal, Sigma: mean * 0.15})
			}
		}
		cpuTarget := models.NewHourlyNormal()
		for w := 0; w < 2; w++ {
			for h := 0; h < 24; h++ {
				diurnal := 0.05 + 0.25*businessHours(h)
				cpuTarget.Set(models.HourBucket{Weekend: w == 1, Hour: h},
					models.NormalParam{Mean: diurnal, Sigma: diurnal * 0.4})
			}
		}
		set.CPU[e] = &models.CPUModel{
			TargetFraction:  cpuTarget,
			IdleFraction:    0.3, // §2: a substantial number of databases are completely idle
			SecondaryFactor: 0.15,
			ReportInterval:  20 * time.Minute,
		}
		set.Memory[e] = &models.MemoryModel{
			Target:          target,
			WarmRate:        0.5,
			ColdStartGB:     0.5,
			SecondaryFactor: 0.4, // standby replicas hold smaller buffer pools
			ReportInterval:  20 * time.Minute,
		}
	}
	tm.Set = set
	return tm
}

// businessHours is 1 inside 9-17h and tapers outside.
func businessHours(h int) float64 {
	switch {
	case h >= 9 && h <= 17:
		return 1
	case h >= 7 && h <= 19:
		return 0.5
	default:
		return 0.1
	}
}

// defaultModelsXML is the model XML the seed-42 training deploys: the
// bytes `tototrain -seed 42 -o` writes. tototrain imports this package,
// whose build needs the file, so generation first puts an empty
// placeholder in place of a missing one; DefaultModels decodes lazily,
// so the training never reads it.
//
//go:generate sh -c "test -e default_models.xml || : > default_models.xml"
//go:generate go run ../../cmd/tototrain -seed 42 -o default_models.xml
//go:embed default_models.xml
var defaultModelsXML []byte

var (
	defaultModelsOnce sync.Once
	defaultModels     *TrainedModels
)

// DefaultModels returns the deployed default model set, the seed-42
// training's, decoded once per process from the embedded
// default_models.xml through the parser a scenario's modelXML takes. No
// simulating process trains: the result carries only Set. Callers that
// read the training inputs (Figures 6-9, CompareDiskCandidates) take
// TrainDefaultModels(42). It panics if the embedded file does not
// decode, which only a bad build can cause.
func DefaultModels() *TrainedModels {
	defaultModelsOnce.Do(func() {
		set, err := models.UnmarshalModelSetXML(defaultModelsXML)
		if err != nil {
			panic("core: internal/core/default_models.xml: " + err.Error() + "; regenerate it with `go generate ./internal/core`")
		}
		defaultModels = &TrainedModels{Set: set}
	})
	return defaultModels
}
