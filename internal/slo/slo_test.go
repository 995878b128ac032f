package slo

import "testing"

func TestEditionBasics(t *testing.T) {
	if StandardGP.ReplicaCount() != 1 {
		t.Error("GP replica count != 1")
	}
	if PremiumBC.ReplicaCount() != 4 {
		t.Error("BC replica count != 4")
	}
	if StandardGP.LocalStore() {
		t.Error("GP is not local store")
	}
	if !PremiumBC.LocalStore() {
		t.Error("BC is local store")
	}
	if StandardGP.String() != "Standard/GP" || PremiumBC.String() != "Premium/BC" {
		t.Error("edition names")
	}
	if len(Editions()) != 2 {
		t.Error("editions count")
	}
}

func TestTotalCores(t *testing.T) {
	c := Gen5()
	bc24, ok := c.Lookup("BC_Gen5_24")
	if !ok {
		t.Fatal("BC_Gen5_24 missing")
	}
	// §5.3.1: a 24-core BC database reserves 96 cores across 4 replicas.
	if bc24.TotalCores() != 96 {
		t.Errorf("BC_Gen5_24 total cores = %d, want 96", bc24.TotalCores())
	}
	gp4, _ := c.Lookup("GP_Gen5_4")
	if gp4.TotalCores() != 4 {
		t.Errorf("GP_Gen5_4 total cores = %d, want 4", gp4.TotalCores())
	}
}

func TestGen5CatalogShape(t *testing.T) {
	c := Gen5()
	if c.Len() != 34 {
		t.Errorf("catalog size = %d, want 34 (12 singleton + 5 pool core sizes x 2 editions)", c.Len())
	}
	var gp, bc []SLO
	for _, s := range c.byName {
		switch s.Edition {
		case StandardGP:
			gp = append(gp, s)
		case PremiumBC:
			bc = append(bc, s)
		}
	}
	if len(gp) != 17 || len(bc) != 17 {
		t.Fatalf("per-edition sizes = %d, %d", len(gp), len(bc))
	}
	// BC compute is priced above GP (local SSD + 4x replication revenue),
	// comparing within the same (cores, pool) shape.
	for _, g := range gp {
		for _, b := range bc {
			if b.Cores == g.Cores && b.Pool == g.Pool && b.PricePerCoreHour <= g.PricePerCoreHour {
				t.Errorf("BC price %v not above GP %v at %d cores", b.PricePerCoreHour, g.PricePerCoreHour, g.Cores)
			}
		}
	}
}

func TestGen5PoolSLOs(t *testing.T) {
	c := Gen5()
	pool, ok := c.Lookup("GPPOOL_Gen5_8")
	if !ok {
		t.Fatal("GPPOOL_Gen5_8 missing")
	}
	if !pool.Pool || pool.MaxMemberDBs != 200 {
		t.Errorf("pool SLO = %+v", pool)
	}
	single, _ := c.Lookup("GP_Gen5_8")
	if single.Pool || single.MaxMemberDBs != 0 {
		t.Errorf("singleton SLO marked as pool: %+v", single)
	}
	if pool.MaxDiskGB <= single.MaxDiskGB {
		t.Error("pool storage quota should exceed the singleton's")
	}
	bcPool, _ := c.Lookup("BCPOOL_Gen5_40")
	if bcPool.MaxMemberDBs != 500 {
		t.Errorf("member cap = %d, want 500", bcPool.MaxMemberDBs)
	}
}

func TestGen5BCDiskQuotaSupportsLargeRestores(t *testing.T) {
	// §5.3.2 describes a 6-core BC database growing ~1.3 TB.
	c := Gen5()
	bc6, _ := c.Lookup("BC_Gen5_6")
	if bc6.MaxDiskGB < 1331 {
		t.Errorf("BC_Gen5_6 max disk = %v GB, must allow a 1.3 TB database", bc6.MaxDiskGB)
	}
	bc80, _ := c.Lookup("BC_Gen5_80")
	if bc80.MaxDiskGB > 4096 {
		t.Errorf("BC ladder must cap at 4 TB, got %v", bc80.MaxDiskGB)
	}
}

func TestGen5GPDiskIsTempDBOnly(t *testing.T) {
	c := Gen5()
	gp2, _ := c.Lookup("GP_Gen5_2")
	bc2, _ := c.Lookup("BC_Gen5_2")
	if gp2.MaxDiskGB >= bc2.MaxDiskGB {
		t.Errorf("GP local disk quota (%v) must be far below BC (%v)", gp2.MaxDiskGB, bc2.MaxDiskGB)
	}
}

func TestCatalogLookupAndNames(t *testing.T) {
	c := Gen5()
	if _, ok := c.Lookup("nope"); ok {
		t.Error("lookup of unknown SLO succeeded")
	}
	if s, ok := c.Lookup("BC_Gen5_8"); !ok || s.Name != "BC_Gen5_8" {
		t.Errorf("lookup of BC_Gen5_8 = %+v, %v", s, ok)
	}
}

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog([]SLO{{Name: "x", Cores: 0, MaxDiskGB: 1}}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewCatalog([]SLO{{Name: "x", Cores: 1, MaxDiskGB: 0}}); err == nil {
		t.Error("zero disk accepted")
	}
	if _, err := NewCatalog([]SLO{
		{Name: "x", Cores: 1, MaxDiskGB: 1},
		{Name: "x", Cores: 2, MaxDiskGB: 2},
	}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestGen5NodeLogicalBelowPhysical(t *testing.T) {
	n := Gen5Node()
	if n.LogicalCores >= n.PhysicalCores {
		t.Error("logical cores not conservative")
	}
	if n.LogicalDiskGB >= n.PhysicalDiskGB {
		t.Error("logical disk not conservative")
	}
	if n.LogicalMemoryGB >= n.PhysicalMemoryGB {
		t.Error("logical memory not conservative")
	}
}

func TestGen4ResourceRatiosDiffer(t *testing.T) {
	g4, g5 := Gen4Node(), Gen5Node()
	r4 := g4.LogicalDiskGB / float64(g4.LogicalCores)
	r5 := g5.LogicalDiskGB / float64(g5.LogicalCores)
	// §2: resource ratios vary from generation to generation; gen4
	// carries more local SSD per logical core.
	if r4 <= r5 {
		t.Errorf("gen4 disk/core = %v not above gen5 %v", r4, r5)
	}
	if g4.LogicalCores >= g4.PhysicalCores || g4.LogicalDiskGB >= g4.PhysicalDiskGB {
		t.Error("gen4 logical capacities not conservative")
	}
}
