package models

import (
	"encoding/xml"
	"fmt"
	"math"
	"time"

	"toto/internal/slo"
)

// ModelSet is the full collection of models Toto injects into a cluster:
// create/drop models for the Population Manager and disk/memory models
// for every RgManager. It is written into the Naming Service, and every
// RgManager re-reads it every refresh interval, so overwriting it
// reconfigures resource behaviour declaratively mid-run (§3.3.1:
// "Tweaking the growth behavior of subsets of databases ... is easily
// configurable simply by changing XML properties").
//
// XML is the file format: tototrain writes it and totosim reads it. A
// running cluster stores the set itself under NamingKey, as a validated
// Clone, and every reader in the cluster shares that one copy, so a
// stored set must be treated as read-only. The model types hold no
// mutable state. A set the caller builds, or gets from
// UnmarshalModelSetXML, is its own to edit.
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

// NamingKey is the Naming Service key the model set lives under.
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

// Validate returns the first value of m that breaks a model rule, or nil.
// It checks what EncodeXML writes, with the parser's messages, walking
// editions in slo.Editions() order and, within one, the elements in the
// XML's order. A nil model, or a NaN or infinite number, is reported
// before any range rule, since every range rule is false for NaN. The
// rules: ring share > 0; sigma, SLO weight >= 0; disk, memory and CPU
// report interval > 0; CPU idle, pool member and long-lived fractions in
// [0, 1].
func (m *ModelSet) Validate() error {
	if math.IsNaN(m.RingShare) || math.IsInf(m.RingShare, 0) {
		return fmt.Errorf("models: TotoModels: ringShare=%v is not a finite number", m.RingShare)
	}
	var c setCheck
	if m.RingShare <= 0 {
		c.broken(fmt.Errorf("models: non-positive ring share %f", m.RingShare))
	}
	for _, e := range slo.Editions() {
		if h, ok := m.Create[e]; ok {
			c.hourly("CreateModel", e, h)
			for _, sw := range m.SLOMix[e] {
				c.num("CreateModel SLOMix SLO", e, "weight", sw.Weight)
				if sw.Weight < 0 {
					c.broken(fmt.Errorf("models: negative SLO weight for %q", sw.Name))
				}
			}
			if nd, ok := m.NewDBDiskGB[e]; ok {
				c.bins("CreateModel NewDBDisk", e, []GrowthBin{nd})
			}
		}
		if h, ok := m.Drop[e]; ok {
			c.hourly("DropModel", e, h)
		}
		if d, ok := m.Disk[e]; ok && c.present("DiskUsageModel", e, d != nil) {
			c.hourly("DiskUsageModel Steady", e, d.Steady)
			c.interval("disk", d.ReportInterval)
			if d.Initial != nil {
				c.num("DiskUsageModel InitialGrowth", e, "probability", d.Initial.Probability)
				c.bins("DiskUsageModel InitialGrowth Bin", e, d.Initial.Bins)
			}
			if d.Rapid != nil {
				c.num("DiskUsageModel RapidGrowth", e, "probability", d.Rapid.Probability)
				c.bins("DiskUsageModel RapidGrowth Bin", e, d.Rapid.IncreaseBins)
			}
		}
		if mm, ok := m.Memory[e]; ok && c.present("MemoryModel", e, mm != nil) {
			c.num("MemoryModel", e, "warmRate", mm.WarmRate)
			c.num("MemoryModel", e, "coldStartGB", mm.ColdStartGB)
			c.num("MemoryModel", e, "secondaryFactor", mm.SecondaryFactor)
			c.hourly("MemoryModel Target", e, mm.Target)
			c.interval("memory", mm.ReportInterval)
		}
		if cm := m.CPU[e]; cm != nil {
			c.num("CPUModel", e, "idleFraction", cm.IdleFraction)
			c.num("CPUModel", e, "secondaryFactor", cm.SecondaryFactor)
			c.hourly("CPUModel Target", e, cm.TargetFraction)
			c.interval("CPU", cm.ReportInterval)
			c.fraction("CPU idle fraction", cm.IdleFraction)
		}
		if pp := m.Pools[e]; pp != nil {
			c.num("PoolPolicy", e, "memberFraction", pp.MemberFraction)
			c.num("PoolPolicy", e, "memberMaxDiskGB", pp.MemberMaxDiskGB)
			c.fraction("pool member fraction", pp.MemberFraction)
		}
		if lt := m.Lifetime[e]; lt != nil {
			c.num("LifetimeModel", e, "longLivedFraction", lt.LongLivedFraction)
			c.bins("LifetimeModel Bin", e, lt.Bins)
			c.fraction("long-lived fraction", lt.LongLivedFraction)
		}
	}
	if c.shape != nil {
		return c.shape
	}
	return c.rule
}

// setCheck keeps Validate's first nil model or non-finite number (shape)
// and its first broken range rule (rule).
type setCheck struct{ shape, rule error }

func (c *setCheck) broken(err error) {
	if c.rule == nil {
		c.rule = err
	}
}

// present records a nil model named by elem and edition e, and reports
// whether the model is there to check.
func (c *setCheck) present(elem string, e slo.Edition, ok bool) bool {
	if !ok && c.shape == nil {
		c.shape = fmt.Errorf("models: %s (edition %q) is nil", elem, e)
	}
	return ok
}

func (c *setCheck) num(elem string, e slo.Edition, attr string, v float64) {
	if c.shape == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		c.shape = fmt.Errorf("models: %s (edition %q): %s=%v is not a finite number", elem, e, attr, v)
	}
}

// hourly checks the cells an hourly model encodes, as elem's Hour
// elements.
func (c *setCheck) hourly(elem string, e slo.Edition, h *HourlyNormal) {
	if !c.present(elem, e, h != nil) {
		return
	}
	cell := elem + " Hour"
	for w := range h.cells {
		for _, p := range h.cells[w] {
			c.num(cell, e, "mean", p.Mean)
			c.num(cell, e, "sigma", p.Sigma)
			if p.Sigma < 0 {
				c.broken(fmt.Errorf("models: negative sigma %f", p.Sigma))
			}
		}
	}
}

func (c *setCheck) bins(elem string, e slo.Edition, bins []GrowthBin) {
	for _, b := range bins {
		c.num(elem, e, "loGB", b.LoGB)
		c.num(elem, e, "hiGB", b.HiGB)
	}
}

func (c *setCheck) interval(what string, d time.Duration) {
	if d <= 0 {
		c.broken(fmt.Errorf("models: non-positive %s report interval %v", what, d))
	}
}

func (c *setCheck) fraction(what string, f float64) {
	if f < 0 || f > 1 {
		c.broken(fmt.Errorf("models: %s %f outside [0,1]", what, f))
	}
}

// Clone returns what UnmarshalModelSetXML(m.EncodeXML()) returns, built
// without XML: a deep copy of every map, model and slice, leaving out
// what the encoder leaves out. That is nil CPU, pool and lifetime
// entries, editions outside slo.Editions(), the SLO mix and new-database
// disk of an edition with no Create model, and hourly cells whose mean
// and sigma are both zero (a negative zero reads back as zero). m must
// pass Validate.
func (m *ModelSet) Clone() *ModelSet {
	c := NewModelSet(m.Seed)
	c.RingShare, c.Frozen = m.RingShare, m.Frozen
	for _, e := range slo.Editions() {
		if h, ok := m.Create[e]; ok {
			c.Create[e] = h.clone()
			if mix := m.SLOMix[e]; len(mix) > 0 {
				c.SLOMix[e] = append([]SLOWeight(nil), mix...)
			}
			if nd, ok := m.NewDBDiskGB[e]; ok {
				c.NewDBDiskGB[e] = nd
			}
		}
		if h, ok := m.Drop[e]; ok {
			c.Drop[e] = h.clone()
		}
		if d, ok := m.Disk[e]; ok {
			cd := *d
			cd.Steady = d.Steady.clone()
			if d.Initial != nil {
				in := *d.Initial
				in.Bins = cloneBins(in.Bins)
				cd.Initial = &in
			}
			if d.Rapid != nil {
				r := *d.Rapid
				r.IncreaseBins = cloneBins(r.IncreaseBins)
				cd.Rapid = &r
			}
			c.Disk[e] = &cd
		}
		if mm, ok := m.Memory[e]; ok {
			cm := *mm
			cm.Target = mm.Target.clone()
			c.Memory[e] = &cm
		}
		if cm := m.CPU[e]; cm != nil {
			cc := *cm
			cc.TargetFraction = cm.TargetFraction.clone()
			c.CPU[e] = &cc
		}
		if pp := m.Pools[e]; pp != nil {
			cp := *pp
			c.Pools[e] = &cp
		}
		if lt := m.Lifetime[e]; lt != nil {
			cl := *lt
			cl.Bins = cloneBins(lt.Bins)
			c.Lifetime[e] = &cl
		}
	}
	return c
}

// cloneBins copies bins into a new slice, empty rather than nil as the
// parser builds it.
func cloneBins(bins []GrowthBin) []GrowthBin {
	return append(make([]GrowthBin, 0, len(bins)), bins...)
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

// cellsToHourly stores each cell as written, leaving its values to
// Validate.
func cellsToHourly(cells []xmlCell) (*HourlyNormal, error) {
	h := NewHourlyNormal()
	for _, c := range cells {
		if c.Hour < 0 || c.Hour > 23 {
			return nil, fmt.Errorf("models: hour %d out of range", c.Hour)
		}
		h.cells[weekendIndex(c.Weekend)][c.Hour] = NormalParam{Mean: c.Mean, Sigma: c.Sigma}
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

// UnmarshalModelSetXML parses the wire format into a fresh ModelSet the
// caller owns: it unmarshals the XML, builds the set, failing only on
// what cannot be stored (an unknown edition, an hour out of range, an
// unparsable duration), and then runs Validate.
func UnmarshalModelSetXML(data []byte) (*ModelSet, error) {
	var w xmlModelSet
	if err := xml.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("models: parse XML: %w", err)
	}
	m, err := w.build()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// build turns the unmarshaled elements into a ModelSet.
func (w *xmlModelSet) build() (*ModelSet, error) {
	m := NewModelSet(w.Seed)
	m.RingShare = w.RingShare
	m.Frozen = w.Frozen
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
		if r := dm.Rapid; r != nil {
			d.Rapid = &RapidGrowthModel{Probability: r.Probability, IncreaseBins: xmlToBins(r.IncreaseBins)}
			for _, f := range []struct {
				s, what string
				dur     *time.Duration
			}{
				{r.SteadyDur, "steadyDur", &d.Rapid.SteadyDur},
				{r.IncreaseDur, "increaseDur", &d.Rapid.IncreaseDur},
				{r.SteadyBetweenDur, "steadyBetweenDur", &d.Rapid.SteadyBetweenDur},
				{r.DecreaseDur, "decreaseDur", &d.Rapid.DecreaseDur},
			} {
				if *f.dur, err = time.ParseDuration(f.s); err != nil {
					return nil, fmt.Errorf("models: rapid growth %s: %w", f.what, err)
				}
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
		m.Lifetime[e] = &LifetimeModel{
			LongLivedFraction: lt.LongLivedFraction,
			Bins:              xmlToBins(lt.Bins),
		}
	}
	return m, nil
}
