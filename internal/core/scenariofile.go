package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"toto/internal/chaos"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs/alert"
	"toto/internal/slo"
	"toto/internal/traffic"
)

// ScenarioFile is the declarative JSON scenario schema consumed by
// cmd/totosim — the paper's "declarative benchmark submission" (§1) for
// operators who drive runs from files rather than Go code. All fields are
// optional; zero values fall back to the paper's defaults.
type ScenarioFile struct {
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`
	Density        float64 `json:"density"`
	Days           float64 `json:"days"`
	BootstrapHours float64 `json:"bootstrapHours"`
	Population     struct {
		PremiumBC  int `json:"premiumBC"`
		StandardGP int `json:"standardGP"`
	} `json:"population"`
	Seeds struct {
		Population uint64 `json:"population"`
		Models     uint64 `json:"models"`
		PLB        uint64 `json:"plb"`
		Bootstrap  uint64 `json:"bootstrap"`
	} `json:"seeds"`
	// ModelXML optionally names a model-XML file (as produced by
	// tototrain); empty means the default trained models.
	ModelXML string `json:"modelXML"`
	// UpgradeStartHours optionally schedules a rolling maintenance
	// upgrade this many hours into the measured window.
	UpgradeStartHours   float64 `json:"upgradeStartHours"`
	UpgradePerNodeHours float64 `json:"upgradePerNodeHours"`
	// Topology stripes the nodes over fault and upgrade domains; zero
	// counts leave the topology machinery inert.
	Topology struct {
		FaultDomains   int `json:"faultDomains"`
		UpgradeDomains int `json:"upgradeDomains"`
	} `json:"topology"`
	// Upgrade, when set, schedules the safety-checked domain-upgrade
	// walker this many hours into the measured window. Omitted pacing
	// fields take the fabric defaults (20m per domain, 10m retry, 12h
	// timeout, 10% headroom).
	Upgrade *struct {
		StartHours       float64 `json:"startHours"`
		PerDomainMinutes float64 `json:"perDomainMinutes"`
		RetryMinutes     float64 `json:"retryMinutes"`
		TimeoutHours     float64 `json:"timeoutHours"`
		Headroom         float64 `json:"headroom"`
	} `json:"upgrade"`
	// SlowNode, when set, arms the fabric's gray-failure detector:
	// per-node latency EWMAs compared against the cluster median,
	// probationary quarantine, and rate-limited planned-move drains.
	// Omitted fields take the fabric defaults (see
	// fabric.DefaultSlowNodeConfig).
	SlowNode *struct {
		EWMAAlpha         float64 `json:"ewmaAlpha"`
		Threshold         float64 `json:"threshold"`
		MinSamples        int     `json:"minSamples"`
		SustainMinutes    float64 `json:"sustainMinutes"`
		ProbationHours    float64 `json:"probationHours"`
		DrainAfterMinutes float64 `json:"drainAfterMinutes"`
		MaxDrainMoves     int     `json:"maxDrainMoves"`
		DrainHeadroom     float64 `json:"drainHeadroom"`
	} `json:"slowNode"`
	// Chaos optionally attaches a deterministic fault schedule to the
	// measured window (see internal/chaos for the schema).
	Chaos *chaos.Spec `json:"chaos"`
	// Alerts optionally attaches the watch layer: threshold and burn-rate
	// rules evaluated on the sim clock (see internal/obs/alert for the
	// schema). A -alerts flag on the CLI overrides this section.
	Alerts *alert.Spec `json:"alerts"`
	// Traffic optionally attaches the request-level traffic plane to the
	// measured window (see internal/traffic for the schema). A -traffic
	// flag on the CLI overrides this section.
	Traffic *traffic.Spec `json:"traffic"`
}

// ParseScenarioFile decodes the JSON schema. Unknown fields are rejected
// so typos in operator files fail loudly instead of silently running the
// default.
func ParseScenarioFile(data []byte) (*ScenarioFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sf ScenarioFile
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("core: parse scenario file: %w", err)
	}
	if sf.Density < 0 || sf.Days < 0 || sf.BootstrapHours < 0 {
		return nil, fmt.Errorf("core: scenario file has negative durations or density")
	}
	if sf.Topology.FaultDomains < 0 || sf.Topology.UpgradeDomains < 0 {
		return nil, fmt.Errorf("core: scenario file has negative domain counts")
	}
	if sf.Upgrade != nil && (sf.Upgrade.StartHours < 0 || sf.Upgrade.PerDomainMinutes < 0 ||
		sf.Upgrade.RetryMinutes < 0 || sf.Upgrade.TimeoutHours < 0 || sf.Upgrade.Headroom < 0) {
		return nil, fmt.Errorf("core: scenario file has negative upgrade parameters")
	}
	if sn := sf.SlowNode; sn != nil {
		if sn.EWMAAlpha < 0 || sn.EWMAAlpha > 1 || sn.Threshold < 0 || sn.MinSamples < 0 ||
			sn.SustainMinutes < 0 || sn.ProbationHours < 0 || sn.DrainAfterMinutes < 0 ||
			sn.MaxDrainMoves < 0 || sn.DrainHeadroom < 0 || sn.DrainHeadroom >= 1 {
			return nil, fmt.Errorf("core: scenario file has invalid slowNode parameters")
		}
	}
	if sf.Chaos != nil {
		if err := sf.Chaos.Validate(); err != nil {
			return nil, err
		}
	}
	if err := sf.Alerts.Validate(); err != nil {
		return nil, err
	}
	if err := sf.Traffic.Validate(); err != nil {
		return nil, err
	}
	return &sf, nil
}

// ScenarioSection returns the named top-level section of a scenario
// file, or data unchanged when it is not an object holding that section.
// Flags that take one spec (-chaos, -traffic) accept either a bare spec
// or a whole scenario file this way, so one chaos-week file can overlay
// any scenario.
func ScenarioSection(data []byte, name string) []byte {
	var sections map[string]json.RawMessage
	if json.Unmarshal(data, &sections) == nil {
		if sec, ok := sections[name]; ok {
			return sec
		}
	}
	return data
}

// ReadSection reads the file a spec flag names and parses either a bare
// spec or the scenario section of that name (ScenarioSection), so the
// commands' -chaos, -traffic and -alerts flags all take a whole scenario
// file too. A parse error names the file.
func ReadSection[T any](path, section string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := parse(ScenarioSection(data, section))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Build materializes the file into a runnable Scenario. set is the model
// set to use when the file does not name its own XML (the caller resolves
// ModelXML, so Build reads no file).
func (sf *ScenarioFile) Build(set *models.ModelSet) *Scenario {
	name := sf.Name
	if name == "" {
		name = "scenario"
	}
	density := sf.Density
	if density == 0 {
		density = 1.1
	}
	days := sf.Days
	if days == 0 {
		days = 2
	}
	bootstrapHours := sf.BootstrapHours
	if bootstrapHours == 0 {
		bootstrapHours = 6
	}
	seeds := Seeds{
		Population: sf.Seeds.Population,
		Models:     sf.Seeds.Models,
		PLB:        sf.Seeds.PLB,
		Bootstrap:  sf.Seeds.Bootstrap,
	}
	if seeds == (Seeds{}) {
		seeds = Seeds{Population: 101, Models: 202, PLB: 303, Bootstrap: 404}
	}
	sc := DefaultScenario(name, density, set, seeds)
	sc.Duration = time.Duration(days * 24 * float64(time.Hour))
	sc.BootstrapDuration = time.Duration(bootstrapHours * float64(time.Hour))
	if sf.Nodes > 0 {
		sc.Nodes = sf.Nodes
	}
	if sf.Population.PremiumBC > 0 || sf.Population.StandardGP > 0 {
		sc.Population.Counts = map[slo.Edition]int{
			slo.PremiumBC:  sf.Population.PremiumBC,
			slo.StandardGP: sf.Population.StandardGP,
		}
	}
	if sf.UpgradeStartHours > 0 {
		sc.UpgradeStart = time.Duration(sf.UpgradeStartHours * float64(time.Hour))
		if sf.UpgradePerNodeHours > 0 {
			sc.UpgradePerNode = time.Duration(sf.UpgradePerNodeHours * float64(time.Hour))
		}
	}
	sc.FaultDomains = sf.Topology.FaultDomains
	sc.UpgradeDomains = sf.Topology.UpgradeDomains
	if sf.Upgrade != nil {
		sc.DomainUpgrade = &DomainUpgrade{
			Start: time.Duration(sf.Upgrade.StartHours * float64(time.Hour)),
			Spec: fabric.UpgradeSpec{
				PerDomain:        time.Duration(sf.Upgrade.PerDomainMinutes * float64(time.Minute)),
				RetryInterval:    time.Duration(sf.Upgrade.RetryMinutes * float64(time.Minute)),
				Timeout:          time.Duration(sf.Upgrade.TimeoutHours * float64(time.Hour)),
				CapacityHeadroom: sf.Upgrade.Headroom,
			},
		}
	}
	if sn := sf.SlowNode; sn != nil {
		sc.SlowNodeDetection = &fabric.SlowNodeConfig{
			EWMAAlpha:     sn.EWMAAlpha,
			Threshold:     sn.Threshold,
			MinSamples:    sn.MinSamples,
			Sustain:       time.Duration(sn.SustainMinutes * float64(time.Minute)),
			Probation:     time.Duration(sn.ProbationHours * float64(time.Hour)),
			DrainAfter:    time.Duration(sn.DrainAfterMinutes * float64(time.Minute)),
			MaxDrainMoves: sn.MaxDrainMoves,
			DrainHeadroom: sn.DrainHeadroom,
		}
	}
	sc.Chaos = sf.Chaos
	sc.Alerts = sf.Alerts
	sc.Traffic = sf.Traffic
	return sc
}
