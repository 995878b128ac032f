// Package slo models Azure SQL DB editions and Service Level Objectives
// (SLOs) as the Toto paper uses them (§2): Standard/General Purpose
// databases store data remotely and run a single replica; Premium/
// Business Critical databases store data on local SSD and replicate four
// times across compute nodes. Each SLO fixes the compute cores, memory,
// and maximum local-disk quota a database may reserve, plus the prices
// that feed the modeled-revenue calculation (§5.1).
package slo

import (
	"fmt"
)

// Edition classifies a database by where its data lives, which determines
// replication factor, failover cost, and disk semantics.
type Edition int

const (
	// StandardGP covers Standard DTU and General Purpose VCore offerings:
	// data and log files live in remote storage, one replica, and local
	// disk holds only tempDB (which is lost — reset — on failover).
	StandardGP Edition = iota
	// PremiumBC covers Premium DTU and Business Critical VCore offerings:
	// data lives on the compute node's local SSD and is replicated on
	// four nodes; local disk usage persists across failovers.
	PremiumBC
)

// String returns the edition name used throughout the paper's figures.
func (e Edition) String() string {
	switch e {
	case StandardGP:
		return "Standard/GP"
	case PremiumBC:
		return "Premium/BC"
	default:
		return fmt.Sprintf("Edition(%d)", int(e))
	}
}

// Editions lists all editions in a stable order.
func Editions() []Edition { return []Edition{StandardGP, PremiumBC} }

// ReplicaCount returns the number of replicas a database of this edition
// runs: 1 for remote-store, 4 for local-store (§2, "replicated four times
// on four different compute nodes").
func (e Edition) ReplicaCount() int {
	if e == PremiumBC {
		return 4
	}
	return 1
}

// LocalStore reports whether the database files live on node-local SSD.
func (e Edition) LocalStore() bool { return e == PremiumBC }

// SLO is one service-level objective: a purchasable performance
// configuration within an edition.
type SLO struct {
	// Name identifies the SLO (e.g. "GP_Gen5_4").
	Name string
	// Edition is the service tier the SLO belongs to.
	Edition Edition
	// Pool marks an elastic-pool SLO: one SQL instance whose reservation
	// is shared by many member databases (§5.5 lists Elastic Pools as the
	// population-accuracy extension; [5] in the paper's references).
	Pool bool
	// MaxMemberDBs bounds how many databases a pool SLO may host (0 for
	// singleton SLOs).
	MaxMemberDBs int
	// Cores is the number of vCores reserved per replica.
	Cores int
	// MemoryGB is the DRAM available to the SQL process per replica.
	MemoryGB float64
	// MaxDiskGB is the maximum allowable local-disk capacity. For
	// remote-store SLOs this bounds tempDB; for local-store SLOs it
	// bounds data+log+tempDB and "consumes a significant fraction of a
	// single machine" at the top of the ladder (§2).
	MaxDiskGB float64
	// PricePerCoreHour is the modeled compute price in dollars.
	PricePerCoreHour float64
	// StoragePricePerGBMonth is the modeled storage price in dollars.
	StoragePricePerGBMonth float64
}

// TotalCores returns the cores the SLO reserves across all replicas —
// the quantity the cluster admission controller counts (a 24-core BC
// database reserves 96 cores cluster-wide, §5.3.1).
func (s SLO) TotalCores() int { return s.Cores * s.Edition.ReplicaCount() }

// Catalog is an immutable set of SLOs with lookup by name.
type Catalog struct {
	byName map[string]SLO
}

// NewCatalog builds a catalog from the given SLOs. Duplicate names are an
// error.
func NewCatalog(slos []SLO) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]SLO, len(slos))}
	for _, s := range slos {
		if s.Cores <= 0 {
			return nil, fmt.Errorf("slo: %q has non-positive cores", s.Name)
		}
		if s.MaxDiskGB <= 0 {
			return nil, fmt.Errorf("slo: %q has non-positive max disk", s.Name)
		}
		if _, dup := c.byName[s.Name]; dup {
			return nil, fmt.Errorf("slo: duplicate SLO name %q", s.Name)
		}
		c.byName[s.Name] = s
	}
	return c, nil
}

// Lookup returns the SLO with the given name.
func (c *Catalog) Lookup(name string) (SLO, bool) {
	s, ok := c.byName[name]
	return s, ok
}

// Len returns the number of SLOs in the catalog.
func (c *Catalog) Len() int { return len(c.byName) }

// Gen5 returns the SLO catalog for the gen5 hardware SKU used in the
// paper's experiments (§5.2: "a smaller 14 node, gen5, stage cluster",
// the predominant SKU). Core ladders and the ~5.1 GB/core memory ratio
// follow the public vCore documentation; prices are modeled on the public
// Azure SQL Database price list (BC roughly 2.7x GP compute, reflecting
// local SSD and 4x replication cost/revenue).
func Gen5() *Catalog {
	mk := func(edition Edition, cores int) SLO {
		prefix := "GP"
		pricePerCoreHour := 0.25
		storagePrice := 0.115
		maxDisk := 32.0 * float64(cores) // tempDB allowance scales with cores
		if edition == PremiumBC {
			prefix = "BC"
			pricePerCoreHour = 0.67
			storagePrice = 0.25
			// Local-store data quota: the BC ladder tops out at ~4 TB on
			// gen5; smaller SLOs get proportionally less but with a high
			// floor, so even a 6-core BC database can hold >1 TB (§5.3.2
			// describes a 6-core BC database growing 1.3 TB).
			maxDisk = 1024 + 128*float64(cores)
			if maxDisk > 4096 {
				maxDisk = 4096
			}
		}
		return SLO{
			Name:                   fmt.Sprintf("%s_Gen5_%d", prefix, cores),
			Edition:                edition,
			Cores:                  cores,
			MemoryGB:               5.1 * float64(cores),
			MaxDiskGB:              maxDisk,
			PricePerCoreHour:       pricePerCoreHour,
			StoragePricePerGBMonth: storagePrice,
		}
	}
	mkPool := func(edition Edition, cores int) SLO {
		s := mk(edition, cores)
		s.Name = fmt.Sprintf("%sPOOL_Gen5_%d", prefixOf(edition), cores)
		s.Pool = true
		// Azure pools admit roughly "cores x 25" small databases at the
		// low end, capped at 500; the shared envelope is what makes them
		// cheaper per database than singletons.
		s.MaxMemberDBs = 25 * cores
		if s.MaxMemberDBs > 500 {
			s.MaxMemberDBs = 500
		}
		// Pool storage quota covers all members.
		s.MaxDiskGB *= 2
		return s
	}
	ladder := []int{2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 80}
	poolLadder := []int{4, 8, 16, 24, 40}
	var slos []SLO
	for _, cores := range ladder {
		slos = append(slos, mk(StandardGP, cores))
		slos = append(slos, mk(PremiumBC, cores))
	}
	for _, cores := range poolLadder {
		slos = append(slos, mkPool(StandardGP, cores))
		slos = append(slos, mkPool(PremiumBC, cores))
	}
	c, err := NewCatalog(slos)
	if err != nil {
		panic(err) // static catalog: any error is a programming bug
	}
	return c
}

func prefixOf(e Edition) string {
	if e == PremiumBC {
		return "BC"
	}
	return "GP"
}

// NodeSpec describes the physical resources of one cluster node of a
// hardware SKU, plus the conservatively-set logical capacities the PLB
// enforces (§3.1: "the logical resource capacities of each node have been
// set conservatively").
type NodeSpec struct {
	// PhysicalCores is the machine's core count.
	PhysicalCores int
	// PhysicalMemoryGB is the machine's DRAM.
	PhysicalMemoryGB float64
	// PhysicalDiskGB is the machine's local SSD capacity.
	PhysicalDiskGB float64
	// LogicalCores is the core reservation threshold at 100% density.
	LogicalCores int
	// LogicalDiskGB is the disk load threshold at which the PLB initiates
	// a failover.
	LogicalDiskGB float64
	// LogicalMemoryGB is the memory load threshold.
	LogicalMemoryGB float64
}

// Gen5Node returns the node spec for the gen5 SKU: a dual-socket machine
// with 80 vCores, 8 GB/core DRAM, and ~10 TB local SSD, with logical
// capacities set conservatively below the physical ones (§3.1: "the
// logical resource capacities of each node have been set conservatively").
func Gen5Node() NodeSpec {
	return NodeSpec{
		PhysicalCores:    80,
		PhysicalMemoryGB: 640,
		PhysicalDiskGB:   10240,
		LogicalCores:     64,
		LogicalDiskGB:    8192,
		LogicalMemoryGB:  512,
	}
}

// Gen4Node returns the previous-generation SKU. Its resource ratios
// differ from gen5's — fewer cores per machine but more local SSD per
// core (§2: "Resource ratios plays an outsized role in determining the
// efficiency of SQL DB clusters ... or unused resources will be
// 'stranded'"). On a core-hungry population gen4 exhausts cores first
// and strands disk; on a disk-hungry one the generations trade places.
func Gen4Node() NodeSpec {
	return NodeSpec{
		PhysicalCores:    32,
		PhysicalMemoryGB: 256,
		PhysicalDiskGB:   5120,
		LogicalCores:     24,
		LogicalDiskGB:    4096,
		LogicalMemoryGB:  192,
	}
}
