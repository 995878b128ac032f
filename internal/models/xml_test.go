package models

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"toto/internal/slo"
)

func sampleModelSet() *ModelSet {
	set := NewModelSet(99)
	set.RingShare = 1.0 / 18

	mk := func(base float64) *HourlyNormal {
		h := NewHourlyNormal()
		for w := 0; w < 2; w++ {
			for hr := 0; hr < 24; hr++ {
				h.Set(HourBucket{Weekend: w == 1, Hour: hr},
					NormalParam{Mean: base + float64(hr), Sigma: 0.5 + float64(w)})
			}
		}
		return h
	}
	set.Create[slo.StandardGP] = mk(40)
	set.Create[slo.PremiumBC] = mk(4)
	set.Drop[slo.StandardGP] = mk(30)
	set.Drop[slo.PremiumBC] = mk(3)

	set.Disk[slo.StandardGP] = &DiskUsageModel{
		Steady:         mk(0.01),
		ReportInterval: 20 * time.Minute,
		Persisted:      false,
	}
	set.Disk[slo.PremiumBC] = &DiskUsageModel{
		Steady:         mk(0.1),
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
		Initial: &InitialGrowthModel{
			Probability: 0.04,
			Duration:    30 * time.Minute,
			Bins:        []GrowthBin{{LoGB: 12, HiGB: 100}, {LoGB: 100, HiGB: 1400}},
		},
		Rapid: &RapidGrowthModel{
			Probability:      0.03,
			SteadyDur:        20 * time.Hour,
			IncreaseDur:      time.Hour,
			SteadyBetweenDur: 2 * time.Hour,
			DecreaseDur:      time.Hour,
			IncreaseBins:     []GrowthBin{{LoGB: 50, HiGB: 400}},
		},
	}
	set.Memory[slo.StandardGP] = &MemoryModel{
		Target:         mk(4),
		WarmRate:       0.5,
		ColdStartGB:    0.5,
		ReportInterval: 20 * time.Minute,
	}
	set.SLOMix[slo.StandardGP] = []SLOWeight{{Name: "GP_Gen5_2", Weight: 0.9}, {Name: "GP_Gen5_4", Weight: 0.1}}
	set.SLOMix[slo.PremiumBC] = []SLOWeight{{Name: "BC_Gen5_2", Weight: 1}}
	set.NewDBDiskGB[slo.StandardGP] = GrowthBin{LoGB: 0.5, HiGB: 24}
	set.NewDBDiskGB[slo.PremiumBC] = GrowthBin{LoGB: 250, HiGB: 900}
	return set
}

func TestXMLRoundTrip(t *testing.T) {
	set := sampleModelSet()
	data, err := set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != set.Seed || back.RingShare != set.RingShare || back.Frozen != set.Frozen {
		t.Errorf("scalars: %+v", back)
	}
	for _, e := range slo.Editions() {
		if !reflect.DeepEqual(back.Create[e], set.Create[e]) {
			t.Errorf("%s create model mismatch", e)
		}
		if !reflect.DeepEqual(back.Drop[e], set.Drop[e]) {
			t.Errorf("%s drop model mismatch", e)
		}
		if !reflect.DeepEqual(back.Disk[e], set.Disk[e]) {
			t.Errorf("%s disk model mismatch", e)
		}
		if !reflect.DeepEqual(back.Memory[e], set.Memory[e]) {
			t.Errorf("%s memory model mismatch", e)
		}
		if !reflect.DeepEqual(back.SLOMix[e], set.SLOMix[e]) {
			t.Errorf("%s SLO mix mismatch", e)
		}
		if back.NewDBDiskGB[e] != set.NewDBDiskGB[e] {
			t.Errorf("%s new-disk mismatch", e)
		}
	}
}

func TestXMLFrozenFlagRoundTrips(t *testing.T) {
	set := sampleModelSet()
	set.Frozen = true
	data, _ := set.EncodeXML()
	back, err := UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Frozen {
		t.Error("frozen flag lost")
	}
}

func TestXMLIsDeclarativeAndEditable(t *testing.T) {
	// §3.3.1: "grow disk usage of Premium/BC replicas 2x faster is easily
	// configurable simply by changing XML properties". Simulate an
	// operator edit: scale every BC steady mean by text substitution of a
	// distinctive value.
	set := NewModelSet(1)
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 0}, NormalParam{Mean: 0.125, Sigma: 0.01})
	set.Disk[slo.PremiumBC] = &DiskUsageModel{Steady: h, ReportInterval: 20 * time.Minute, Persisted: true}
	data, _ := set.EncodeXML()
	edited := strings.Replace(string(data), `mean="0.125"`, `mean="0.25"`, 1)
	back, err := UnmarshalModelSetXML([]byte(edited))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Disk[slo.PremiumBC].Steady.Cell(HourBucket{Hour: 0}).Mean; got != 0.25 {
		t.Errorf("edited mean = %v, want 0.25", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalModelSetXML([]byte("not xml")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUnmarshalRejectsBadFields(t *testing.T) {
	// in wraps body in a valid root; a case's error must contain want.
	in := func(body string) string { return `<TotoModels seed="1" ringShare="1">` + body + `</TotoModels>` }
	cases := []struct{ name, xml, want string }{
		{"zero ring share", `<TotoModels seed="1" ringShare="0" frozen="false"></TotoModels>`, ""},
		{"bad hour", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour weekend="false" hour="25" mean="1" sigma="1"/></CreateModel></TotoModels>`, ""},
		{"negative sigma", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour weekend="false" hour="1" mean="1" sigma="-1"/></CreateModel></TotoModels>`, ""},
		{"unknown edition", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Hyperscale"><Hour weekend="false" hour="1" mean="1" sigma="1"/></CreateModel></TotoModels>`, ""},
		{"bad interval", `<TotoModels seed="1" ringShare="1"><DiskUsageModel edition="Standard/GP" persisted="false" reportInterval="soon"></DiskUsageModel></TotoModels>`, ""},
		{"zero interval", `<TotoModels seed="1" ringShare="1"><DiskUsageModel edition="Standard/GP" persisted="false" reportInterval="0s"></DiskUsageModel></TotoModels>`, ""},
		{"negative weight", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><SLOMix><SLO name="x" weight="-1"/></SLOMix></CreateModel></TotoModels>`, ""},
		// Every range check is false for NaN, so non-finite numbers are
		// rejected by name before any of them runs.
		{"NaN ring share", `<TotoModels seed="1" ringShare="NaN"></TotoModels>`, "TotoModels: ringShare=NaN"},
		{"infinite ring share", `<TotoModels seed="1" ringShare="+Inf"></TotoModels>`, "TotoModels: ringShare=+Inf"},
		{"NaN create mean", in(`<CreateModel edition="Standard/GP"><Hour weekend="false" hour="1" mean="NaN" sigma="1"/></CreateModel>`), `CreateModel Hour (edition "Standard/GP"): mean=NaN`},
		{"NaN create sigma", in(`<CreateModel edition="Standard/GP"><Hour weekend="false" hour="1" mean="1" sigma="NaN"/></CreateModel>`), `CreateModel Hour (edition "Standard/GP"): sigma=NaN`},
		{"infinite drop sigma", in(`<DropModel edition="Premium/BC"><Hour weekend="true" hour="3" mean="1" sigma="Inf"/></DropModel>`), `DropModel Hour (edition "Premium/BC"): sigma=+Inf`},
		{"NaN SLO weight", in(`<CreateModel edition="Standard/GP"><SLOMix><SLO name="x" weight="NaN"/></SLOMix></CreateModel>`), `CreateModel SLOMix SLO (edition "Standard/GP"): weight=NaN`},
		{"infinite new-database disk", in(`<CreateModel edition="Standard/GP"><NewDBDisk loGB="1" hiGB="+Inf"/></CreateModel>`), `CreateModel NewDBDisk (edition "Standard/GP"): hiGB=+Inf`},
		{"NaN steady mean", in(`<DiskUsageModel edition="Standard/GP" persisted="false" reportInterval="20m0s"><Steady><Hour weekend="false" hour="0" mean="NaN" sigma="0"/></Steady></DiskUsageModel>`), `DiskUsageModel Steady Hour (edition "Standard/GP"): mean=NaN`},
		{"NaN initial probability", in(`<DiskUsageModel edition="Premium/BC" persisted="true" reportInterval="20m0s"><InitialGrowth probability="NaN" duration="30m0s"></InitialGrowth></DiskUsageModel>`), `DiskUsageModel InitialGrowth (edition "Premium/BC"): probability=NaN`},
		{"infinite initial bin", in(`<DiskUsageModel edition="Premium/BC" persisted="true" reportInterval="20m0s"><InitialGrowth probability="0.1" duration="30m0s"><Bin loGB="-Inf" hiGB="1"/></InitialGrowth></DiskUsageModel>`), `DiskUsageModel InitialGrowth Bin (edition "Premium/BC"): loGB=-Inf`},
		{"infinite rapid probability", in(`<DiskUsageModel edition="Premium/BC" persisted="true" reportInterval="20m0s"><RapidGrowth probability="Inf" steadyDur="1h" increaseDur="1h" steadyBetweenDur="1h" decreaseDur="1h"></RapidGrowth></DiskUsageModel>`), `DiskUsageModel RapidGrowth (edition "Premium/BC"): probability=+Inf`},
		{"NaN rapid bin", in(`<DiskUsageModel edition="Premium/BC" persisted="true" reportInterval="20m0s"><RapidGrowth probability="0.1" steadyDur="1h" increaseDur="1h" steadyBetweenDur="1h" decreaseDur="1h"><Bin loGB="1" hiGB="NaN"/></RapidGrowth></DiskUsageModel>`), `DiskUsageModel RapidGrowth Bin (edition "Premium/BC"): hiGB=NaN`},
		{"NaN memory warm rate", in(`<MemoryModel edition="Standard/GP" warmRate="NaN" coldStartGB="1" secondaryFactor="0" reportInterval="20m0s"></MemoryModel>`), `MemoryModel (edition "Standard/GP"): warmRate=NaN`},
		{"infinite memory cold start", in(`<MemoryModel edition="Standard/GP" warmRate="0.5" coldStartGB="Inf" secondaryFactor="0" reportInterval="20m0s"></MemoryModel>`), `MemoryModel (edition "Standard/GP"): coldStartGB=+Inf`},
		{"NaN memory secondary factor", in(`<MemoryModel edition="Standard/GP" warmRate="0.5" coldStartGB="1" secondaryFactor="NaN" reportInterval="20m0s"></MemoryModel>`), `MemoryModel (edition "Standard/GP"): secondaryFactor=NaN`},
		{"NaN memory target sigma", in(`<MemoryModel edition="Standard/GP" warmRate="0.5" coldStartGB="1" secondaryFactor="0" reportInterval="20m0s"><Target><Hour weekend="false" hour="2" mean="4" sigma="NaN"/></Target></MemoryModel>`), `MemoryModel Target Hour (edition "Standard/GP"): sigma=NaN`},
		{"NaN CPU idle fraction", in(`<CPUModel edition="Standard/GP" idleFraction="NaN" secondaryFactor="0" reportInterval="20m0s"></CPUModel>`), `CPUModel (edition "Standard/GP"): idleFraction=NaN`},
		{"infinite CPU secondary factor", in(`<CPUModel edition="Standard/GP" idleFraction="0.1" secondaryFactor="Inf" reportInterval="20m0s"></CPUModel>`), `CPUModel (edition "Standard/GP"): secondaryFactor=+Inf`},
		{"NaN CPU target mean", in(`<CPUModel edition="Standard/GP" idleFraction="0.1" secondaryFactor="0" reportInterval="20m0s"><Target><Hour weekend="false" hour="2" mean="NaN" sigma="0.1"/></Target></CPUModel>`), `CPUModel Target Hour (edition "Standard/GP"): mean=NaN`},
		{"NaN pool member fraction", in(`<PoolPolicy edition="Standard/GP" memberFraction="NaN" poolSLO="GPPOOL_Gen5_8" memberMaxDiskGB="10"></PoolPolicy>`), `PoolPolicy (edition "Standard/GP"): memberFraction=NaN`},
		{"infinite pool member disk", in(`<PoolPolicy edition="Standard/GP" memberFraction="0.1" poolSLO="GPPOOL_Gen5_8" memberMaxDiskGB="Inf"></PoolPolicy>`), `PoolPolicy (edition "Standard/GP"): memberMaxDiskGB=+Inf`},
		{"NaN long-lived fraction", in(`<LifetimeModel edition="Standard/GP" longLivedFraction="NaN"></LifetimeModel>`), `LifetimeModel (edition "Standard/GP"): longLivedFraction=NaN`},
		{"infinite lifetime bin", in(`<LifetimeModel edition="Standard/GP" longLivedFraction="0.5"><Bin loGB="1" hiGB="Inf"/></LifetimeModel>`), `LifetimeModel Bin (edition "Standard/GP"): hiGB=+Inf`},
		{"zero memory interval", in(`<MemoryModel edition="Standard/GP" warmRate="0.5" coldStartGB="1" secondaryFactor="0" reportInterval="0s"></MemoryModel>`), "non-positive memory report interval"},
		{"negative memory interval", in(`<MemoryModel edition="Standard/GP" warmRate="0.5" coldStartGB="1" secondaryFactor="0" reportInterval="-20m"></MemoryModel>`), "non-positive memory report interval"},
		{"zero CPU interval", in(`<CPUModel edition="Standard/GP" idleFraction="0.1" secondaryFactor="0" reportInterval="0s"></CPUModel>`), "non-positive CPU report interval"},
	}
	for _, c := range cases {
		_, err := UnmarshalModelSetXML([]byte(c.xml))
		if err == nil {
			t.Errorf("%s accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

func TestDiskReportInterval(t *testing.T) {
	set := NewModelSet(1)
	if set.DiskReportInterval() != 20*time.Minute {
		t.Error("default interval")
	}
	set.Disk[slo.StandardGP] = &DiskUsageModel{Steady: NewHourlyNormal(), ReportInterval: 30 * time.Minute}
	set.Disk[slo.PremiumBC] = &DiskUsageModel{Steady: NewHourlyNormal(), ReportInterval: 10 * time.Minute}
	if set.DiskReportInterval() != 10*time.Minute {
		t.Error("smallest interval not chosen")
	}
}

func TestXMLOmitsEmptyCells(t *testing.T) {
	set := NewModelSet(1)
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 5}, NormalParam{Mean: 1, Sigma: 1})
	set.Create[slo.StandardGP] = h
	data, _ := set.EncodeXML()
	if n := strings.Count(string(data), "<Hour "); n != 1 {
		t.Errorf("serialized %d cells, want 1 (empty cells omitted)", n)
	}
}
