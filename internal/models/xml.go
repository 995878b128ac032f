package models

import (
	"encoding/xml"
	"fmt"
	"time"

	"toto/internal/slo"
)

// ModelSet is the full collection of models Toto injects into a cluster:
// create/drop models for the Population Manager and disk/memory models
// for every RgManager. It is serialized to XML and written into the
// Naming Service; every RgManager re-reads it every refresh interval, so
// overwriting the XML reconfigures resource behaviour declaratively
// mid-run (§3.3.1: "Tweaking the growth behavior of subsets of databases
// ... is easily configurable simply by changing XML properties"). The
// XML is decoded once per written version (fabric.Decoded), so a decoded
// ModelSet is shared by every reader and must be treated as read-only.
type ModelSet struct {
	// Seed is the base model seed. Each node's RgManager splits a unique
	// per-node stream from it (§5.2), and all per-database hashing keys
	// off it.
	Seed uint64
	// RingShare scales region-level create/drop rates down to this
	// tenant ring (§4.1.1: each ring in a region is assumed equally
	// likely to be selected, so the share is 1/#rings).
	RingShare float64
	// Frozen disables all growth and churn sampling: disk models return
	// the previous value unchanged and create/drop counts are zero. The
	// experiment bootstrap phase runs frozen so the PLB can place and
	// balance the initial population before growth starts (§5.2).
	Frozen bool

	// Create and Drop hold region-level hourly-normal count models per
	// edition.
	Create map[slo.Edition]*HourlyNormal
	Drop   map[slo.Edition]*HourlyNormal
	// Disk holds the composed disk usage model per edition.
	Disk map[slo.Edition]*DiskUsageModel
	// Memory holds the optional memory model per edition.
	Memory map[slo.Edition]*MemoryModel
	// CPU holds the optional observational CPU-usage model per edition
	// (§5.5 future work, implemented; never drives placement).
	CPU map[slo.Edition]*CPUModel
	// SLOMix gives the relative frequency of each SLO among newly created
	// databases of an edition (§3.3.3: the Population Manager's models
	// describe "the service tier/edition and the Service Level Objective
	// (SLO) of the databases to create").
	SLOMix map[slo.Edition][]SLOWeight
	// NewDBDiskGB is the uniform range of the initial disk load reported
	// for a freshly created database of an edition ("the initial metric
	// load for each database", §3.3.3).
	NewDBDiskGB map[slo.Edition]GrowthBin
	// Pools optionally enables elastic-pool churn per edition (§5.5):
	// when set, a fraction of created databases become pool members
	// instead of singletons.
	Pools map[slo.Edition]*PoolPolicy
	// Lifetime optionally switches an edition's drop behaviour from the
	// aggregate hourly Drop DB model to per-database lifetimes sampled at
	// creation — the §5.5 refinement ("future iterations will model an
	// individual database's lifetime"). When set, the Drop model is
	// ignored for that edition.
	Lifetime map[slo.Edition]*LifetimeModel
}

// LifetimeModel samples how long an individual database lives.
type LifetimeModel struct {
	// LongLivedFraction of databases never receive a scheduled drop
	// (they outlive any benchmark window, like most production
	// databases).
	LongLivedFraction float64
	// Bins are equi-probable lifetime buckets in hours for the
	// short-lived remainder.
	Bins []GrowthBin
}

// PoolPolicy configures elastic-pool churn for one edition.
type PoolPolicy struct {
	// MemberFraction of creates land in a pool instead of a singleton.
	MemberFraction float64
	// PoolSLO is the SLO used when a new pool must be provisioned.
	PoolSLO string
	// MemberMaxDiskGB caps each member's modeled disk usage.
	MemberMaxDiskGB float64
}

// SLOWeight pairs an SLO name with its selection weight in the create
// mix.
type SLOWeight struct {
	Name   string
	Weight float64
}

// NewModelSet returns an empty model set with allocated maps.
func NewModelSet(seed uint64) *ModelSet {
	return &ModelSet{
		Seed:        seed,
		RingShare:   1,
		Create:      make(map[slo.Edition]*HourlyNormal),
		Drop:        make(map[slo.Edition]*HourlyNormal),
		Disk:        make(map[slo.Edition]*DiskUsageModel),
		Memory:      make(map[slo.Edition]*MemoryModel),
		CPU:         make(map[slo.Edition]*CPUModel),
		SLOMix:      make(map[slo.Edition][]SLOWeight),
		NewDBDiskGB: make(map[slo.Edition]GrowthBin),
		Pools:       make(map[slo.Edition]*PoolPolicy),
		Lifetime:    make(map[slo.Edition]*LifetimeModel),
	}
}

// NamingKey is the Naming Service key the model XML lives under.
const NamingKey = "toto/models"

// DiskReportInterval returns the smallest disk report interval across the
// set's editions, defaulting to the paper's 20 minutes when no disk model
// is configured. The orchestrator's reporting engine ticks at this rate.
func (m *ModelSet) DiskReportInterval() time.Duration {
	best := time.Duration(0)
	for _, d := range m.Disk {
		if d.ReportInterval > 0 && (best == 0 || d.ReportInterval < best) {
			best = d.ReportInterval
		}
	}
	if best == 0 {
		return 20 * time.Minute
	}
	return best
}

// --- XML wire format ---

type xmlCell struct {
	Weekend bool    `xml:"weekend,attr"`
	Hour    int     `xml:"hour,attr"`
	Mean    float64 `xml:"mean,attr"`
	Sigma   float64 `xml:"sigma,attr"`
}

type xmlBin struct {
	LoGB float64 `xml:"loGB,attr"`
	HiGB float64 `xml:"hiGB,attr"`
}

type xmlCountModel struct {
	Edition string         `xml:"edition,attr"`
	Cells   []xmlCell      `xml:"Hour"`
	SLOMix  []xmlSLOWeight `xml:"SLOMix>SLO"`
	NewDisk *xmlBin        `xml:"NewDBDisk"`
}

type xmlSLOWeight struct {
	Name   string  `xml:"name,attr"`
	Weight float64 `xml:"weight,attr"`
}

type xmlInitialGrowth struct {
	Probability float64  `xml:"probability,attr"`
	Duration    string   `xml:"duration,attr"`
	Bins        []xmlBin `xml:"Bin"`
}

type xmlRapidGrowth struct {
	Probability      float64  `xml:"probability,attr"`
	SteadyDur        string   `xml:"steadyDur,attr"`
	IncreaseDur      string   `xml:"increaseDur,attr"`
	SteadyBetweenDur string   `xml:"steadyBetweenDur,attr"`
	DecreaseDur      string   `xml:"decreaseDur,attr"`
	IncreaseBins     []xmlBin `xml:"Bin"`
}

type xmlDiskModel struct {
	Edition        string            `xml:"edition,attr"`
	Persisted      bool              `xml:"persisted,attr"`
	ReportInterval string            `xml:"reportInterval,attr"`
	Steady         []xmlCell         `xml:"Steady>Hour"`
	Initial        *xmlInitialGrowth `xml:"InitialGrowth"`
	Rapid          *xmlRapidGrowth   `xml:"RapidGrowth"`
}

type xmlMemoryModel struct {
	Edition         string    `xml:"edition,attr"`
	WarmRate        float64   `xml:"warmRate,attr"`
	ColdStartGB     float64   `xml:"coldStartGB,attr"`
	SecondaryFactor float64   `xml:"secondaryFactor,attr"`
	ReportInterval  string    `xml:"reportInterval,attr"`
	Target          []xmlCell `xml:"Target>Hour"`
}

type xmlPoolPolicy struct {
	Edition         string  `xml:"edition,attr"`
	MemberFraction  float64 `xml:"memberFraction,attr"`
	PoolSLO         string  `xml:"poolSLO,attr"`
	MemberMaxDiskGB float64 `xml:"memberMaxDiskGB,attr"`
}

type xmlCPUModel struct {
	Edition         string    `xml:"edition,attr"`
	IdleFraction    float64   `xml:"idleFraction,attr"`
	SecondaryFactor float64   `xml:"secondaryFactor,attr"`
	ReportInterval  string    `xml:"reportInterval,attr"`
	Target          []xmlCell `xml:"Target>Hour"`
}

type xmlLifetime struct {
	Edition           string   `xml:"edition,attr"`
	LongLivedFraction float64  `xml:"longLivedFraction,attr"`
	Bins              []xmlBin `xml:"Bin"`
}

type xmlModelSet struct {
	XMLName   xml.Name         `xml:"TotoModels"`
	Seed      uint64           `xml:"seed,attr"`
	RingShare float64          `xml:"ringShare,attr"`
	Frozen    bool             `xml:"frozen,attr"`
	Create    []xmlCountModel  `xml:"CreateModel"`
	Drop      []xmlCountModel  `xml:"DropModel"`
	Disk      []xmlDiskModel   `xml:"DiskUsageModel"`
	Memory    []xmlMemoryModel `xml:"MemoryModel"`
	CPU       []xmlCPUModel    `xml:"CPUModel"`
	Pools     []xmlPoolPolicy  `xml:"PoolPolicy"`
	Lifetimes []xmlLifetime    `xml:"LifetimeModel"`
}

func hourlyToCells(h *HourlyNormal) []xmlCell {
	var cells []xmlCell
	h.Buckets(func(b HourBucket, p NormalParam) {
		if p.Mean == 0 && p.Sigma == 0 {
			return // omit empty cells to keep the XML compact
		}
		cells = append(cells, xmlCell{Weekend: b.Weekend, Hour: b.Hour, Mean: p.Mean, Sigma: p.Sigma})
	})
	return cells
}

func cellsToHourly(cells []xmlCell) (*HourlyNormal, error) {
	h := NewHourlyNormal()
	for _, c := range cells {
		if c.Hour < 0 || c.Hour > 23 {
			return nil, fmt.Errorf("models: hour %d out of range", c.Hour)
		}
		if c.Sigma < 0 {
			return nil, fmt.Errorf("models: negative sigma %f", c.Sigma)
		}
		h.Set(HourBucket{Weekend: c.Weekend, Hour: c.Hour}, NormalParam{Mean: c.Mean, Sigma: c.Sigma})
	}
	return h, nil
}

func binsToXML(bins []GrowthBin) []xmlBin {
	out := make([]xmlBin, len(bins))
	for i, b := range bins {
		out[i] = xmlBin{LoGB: b.LoGB, HiGB: b.HiGB}
	}
	return out
}

func xmlToBins(bins []xmlBin) []GrowthBin {
	out := make([]GrowthBin, len(bins))
	for i, b := range bins {
		out[i] = GrowthBin{LoGB: b.LoGB, HiGB: b.HiGB}
	}
	return out
}

func parseEdition(s string) (slo.Edition, error) {
	for _, e := range slo.Editions() {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("models: unknown edition %q", s)
}

// EncodeXML serializes the model set to the wire format.
func (m *ModelSet) EncodeXML() ([]byte, error) {
	w := xmlModelSet{Seed: m.Seed, RingShare: m.RingShare, Frozen: m.Frozen}
	for _, e := range slo.Editions() {
		if h, ok := m.Create[e]; ok {
			cm := xmlCountModel{Edition: e.String(), Cells: hourlyToCells(h)}
			for _, sw := range m.SLOMix[e] {
				cm.SLOMix = append(cm.SLOMix, xmlSLOWeight{Name: sw.Name, Weight: sw.Weight})
			}
			if nd, ok := m.NewDBDiskGB[e]; ok {
				cm.NewDisk = &xmlBin{LoGB: nd.LoGB, HiGB: nd.HiGB}
			}
			w.Create = append(w.Create, cm)
		}
		if h, ok := m.Drop[e]; ok {
			w.Drop = append(w.Drop, xmlCountModel{Edition: e.String(), Cells: hourlyToCells(h)})
		}
		if d, ok := m.Disk[e]; ok {
			xd := xmlDiskModel{
				Edition:        e.String(),
				Persisted:      d.Persisted,
				ReportInterval: d.ReportInterval.String(),
				Steady:         hourlyToCells(d.Steady),
			}
			if d.Initial != nil {
				xd.Initial = &xmlInitialGrowth{
					Probability: d.Initial.Probability,
					Duration:    d.Initial.Duration.String(),
					Bins:        binsToXML(d.Initial.Bins),
				}
			}
			if d.Rapid != nil {
				xd.Rapid = &xmlRapidGrowth{
					Probability:      d.Rapid.Probability,
					SteadyDur:        d.Rapid.SteadyDur.String(),
					IncreaseDur:      d.Rapid.IncreaseDur.String(),
					SteadyBetweenDur: d.Rapid.SteadyBetweenDur.String(),
					DecreaseDur:      d.Rapid.DecreaseDur.String(),
					IncreaseBins:     binsToXML(d.Rapid.IncreaseBins),
				}
			}
			w.Disk = append(w.Disk, xd)
		}
		if mem, ok := m.Memory[e]; ok {
			w.Memory = append(w.Memory, xmlMemoryModel{
				Edition:         e.String(),
				WarmRate:        mem.WarmRate,
				ColdStartGB:     mem.ColdStartGB,
				SecondaryFactor: mem.SecondaryFactor,
				ReportInterval:  mem.ReportInterval.String(),
				Target:          hourlyToCells(mem.Target),
			})
		}
		if cm, ok := m.CPU[e]; ok && cm != nil {
			w.CPU = append(w.CPU, xmlCPUModel{
				Edition:         e.String(),
				IdleFraction:    cm.IdleFraction,
				SecondaryFactor: cm.SecondaryFactor,
				ReportInterval:  cm.ReportInterval.String(),
				Target:          hourlyToCells(cm.TargetFraction),
			})
		}
		if pp, ok := m.Pools[e]; ok && pp != nil {
			w.Pools = append(w.Pools, xmlPoolPolicy{
				Edition:         e.String(),
				MemberFraction:  pp.MemberFraction,
				PoolSLO:         pp.PoolSLO,
				MemberMaxDiskGB: pp.MemberMaxDiskGB,
			})
		}
		if lt, ok := m.Lifetime[e]; ok && lt != nil {
			w.Lifetimes = append(w.Lifetimes, xmlLifetime{
				Edition:           e.String(),
				LongLivedFraction: lt.LongLivedFraction,
				Bins:              binsToXML(lt.Bins),
			})
		}
	}
	return xml.MarshalIndent(w, "", "  ")
}

// UnmarshalModelSetXML parses the wire format back into a ModelSet.
func UnmarshalModelSetXML(data []byte) (*ModelSet, error) {
	var w xmlModelSet
	if err := xml.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("models: parse XML: %w", err)
	}
	m := NewModelSet(w.Seed)
	m.RingShare = w.RingShare
	m.Frozen = w.Frozen
	if m.RingShare <= 0 {
		return nil, fmt.Errorf("models: non-positive ring share %f", w.RingShare)
	}
	for _, cm := range w.Create {
		e, err := parseEdition(cm.Edition)
		if err != nil {
			return nil, err
		}
		h, err := cellsToHourly(cm.Cells)
		if err != nil {
			return nil, err
		}
		m.Create[e] = h
		for _, sw := range cm.SLOMix {
			if sw.Weight < 0 {
				return nil, fmt.Errorf("models: negative SLO weight for %q", sw.Name)
			}
			m.SLOMix[e] = append(m.SLOMix[e], SLOWeight{Name: sw.Name, Weight: sw.Weight})
		}
		if cm.NewDisk != nil {
			m.NewDBDiskGB[e] = GrowthBin{LoGB: cm.NewDisk.LoGB, HiGB: cm.NewDisk.HiGB}
		}
	}
	for _, cm := range w.Drop {
		e, err := parseEdition(cm.Edition)
		if err != nil {
			return nil, err
		}
		h, err := cellsToHourly(cm.Cells)
		if err != nil {
			return nil, err
		}
		m.Drop[e] = h
	}
	for _, dm := range w.Disk {
		e, err := parseEdition(dm.Edition)
		if err != nil {
			return nil, err
		}
		steady, err := cellsToHourly(dm.Steady)
		if err != nil {
			return nil, err
		}
		interval, err := time.ParseDuration(dm.ReportInterval)
		if err != nil {
			return nil, fmt.Errorf("models: disk report interval: %w", err)
		}
		if interval <= 0 {
			return nil, fmt.Errorf("models: non-positive disk report interval %v", interval)
		}
		d := &DiskUsageModel{Steady: steady, ReportInterval: interval, Persisted: dm.Persisted}
		if dm.Initial != nil {
			dur, err := time.ParseDuration(dm.Initial.Duration)
			if err != nil {
				return nil, fmt.Errorf("models: initial growth duration: %w", err)
			}
			d.Initial = &InitialGrowthModel{
				Probability: dm.Initial.Probability,
				Duration:    dur,
				Bins:        xmlToBins(dm.Initial.Bins),
			}
		}
		if dm.Rapid != nil {
			parse := func(s, what string) (time.Duration, error) {
				dur, err := time.ParseDuration(s)
				if err != nil {
					return 0, fmt.Errorf("models: rapid growth %s: %w", what, err)
				}
				return dur, nil
			}
			sd, err := parse(dm.Rapid.SteadyDur, "steadyDur")
			if err != nil {
				return nil, err
			}
			id, err := parse(dm.Rapid.IncreaseDur, "increaseDur")
			if err != nil {
				return nil, err
			}
			sb, err := parse(dm.Rapid.SteadyBetweenDur, "steadyBetweenDur")
			if err != nil {
				return nil, err
			}
			dd, err := parse(dm.Rapid.DecreaseDur, "decreaseDur")
			if err != nil {
				return nil, err
			}
			d.Rapid = &RapidGrowthModel{
				Probability:      dm.Rapid.Probability,
				SteadyDur:        sd,
				IncreaseDur:      id,
				SteadyBetweenDur: sb,
				DecreaseDur:      dd,
				IncreaseBins:     xmlToBins(dm.Rapid.IncreaseBins),
			}
		}
		m.Disk[e] = d
	}
	for _, mm := range w.Memory {
		e, err := parseEdition(mm.Edition)
		if err != nil {
			return nil, err
		}
		target, err := cellsToHourly(mm.Target)
		if err != nil {
			return nil, err
		}
		interval, err := time.ParseDuration(mm.ReportInterval)
		if err != nil {
			return nil, fmt.Errorf("models: memory report interval: %w", err)
		}
		m.Memory[e] = &MemoryModel{
			Target:          target,
			WarmRate:        mm.WarmRate,
			ColdStartGB:     mm.ColdStartGB,
			SecondaryFactor: mm.SecondaryFactor,
			ReportInterval:  interval,
		}
	}
	for _, cm := range w.CPU {
		e, err := parseEdition(cm.Edition)
		if err != nil {
			return nil, err
		}
		target, err := cellsToHourly(cm.Target)
		if err != nil {
			return nil, err
		}
		interval, err := time.ParseDuration(cm.ReportInterval)
		if err != nil {
			return nil, fmt.Errorf("models: CPU report interval: %w", err)
		}
		if cm.IdleFraction < 0 || cm.IdleFraction > 1 {
			return nil, fmt.Errorf("models: CPU idle fraction %f outside [0,1]", cm.IdleFraction)
		}
		m.CPU[e] = &CPUModel{
			TargetFraction:  target,
			IdleFraction:    cm.IdleFraction,
			SecondaryFactor: cm.SecondaryFactor,
			ReportInterval:  interval,
		}
	}
	for _, pp := range w.Pools {
		e, err := parseEdition(pp.Edition)
		if err != nil {
			return nil, err
		}
		if pp.MemberFraction < 0 || pp.MemberFraction > 1 {
			return nil, fmt.Errorf("models: pool member fraction %f outside [0,1]", pp.MemberFraction)
		}
		m.Pools[e] = &PoolPolicy{
			MemberFraction:  pp.MemberFraction,
			PoolSLO:         pp.PoolSLO,
			MemberMaxDiskGB: pp.MemberMaxDiskGB,
		}
	}
	for _, lt := range w.Lifetimes {
		e, err := parseEdition(lt.Edition)
		if err != nil {
			return nil, err
		}
		if lt.LongLivedFraction < 0 || lt.LongLivedFraction > 1 {
			return nil, fmt.Errorf("models: long-lived fraction %f outside [0,1]", lt.LongLivedFraction)
		}
		m.Lifetime[e] = &LifetimeModel{
			LongLivedFraction: lt.LongLivedFraction,
			Bins:              xmlToBins(lt.Bins),
		}
	}
	return m, nil
}
