package models

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"toto/internal/slo"
)

// FuzzUnmarshalModelSetXML exercises the XML parser with arbitrary
// inputs: it must never panic, every number of a set it accepts must be
// finite, and since the process-wide memo identifies sets by their bytes,
// an accepted set's encoding must be a fixed point of parse-then-encode.
func FuzzUnmarshalModelSetXML(f *testing.F) {
	// Seed the corpus with a real serialized model set and mutations the
	// validator must reject.
	set := NewModelSet(7)
	set.RingShare = 0.05
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 9}, NormalParam{Mean: 3, Sigma: 1})
	set.Create[slo.StandardGP] = h
	set.Disk[slo.PremiumBC] = &DiskUsageModel{
		Steady:         h,
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
		Initial: &InitialGrowthModel{
			Probability: 0.04,
			Duration:    30 * time.Minute,
			Bins:        []GrowthBin{{LoGB: 12, HiGB: 100}},
		},
	}
	set.Memory[slo.StandardGP] = &MemoryModel{Target: h, WarmRate: 0.5, ColdStartGB: 1, ReportInterval: 20 * time.Minute}
	set.CPU[slo.StandardGP] = &CPUModel{TargetFraction: h, IdleFraction: 0.1, ReportInterval: 20 * time.Minute}
	if good, err := set.EncodeXML(); err == nil {
		f.Add(good)
	}
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="0"></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="NaN"></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="+Inf"></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour hour="25"/></CreateModel></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour hour="1" mean="1" sigma="NaN"/></CreateModel></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"><CPUModel edition="Standard/GP" idleFraction="NaN" reportInterval="20m0s"></CPUModel></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"><MemoryModel edition="Standard/GP" warmRate="0.5" reportInterval="0s"></MemoryModel></TotoModels>`))
	f.Add([]byte(`<TotoModels seed="1" ringShare="1"><LifetimeModel edition="Standard/GP" longLivedFraction="0.5"><Bin loGB="1" hiGB="Inf"/></LifetimeModel></TotoModels>`))
	f.Add([]byte(`<not xml`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := UnmarshalModelSetXML(data)
		if err != nil {
			return // rejected input: fine, as long as no panic
		}
		eachFloat(reflect.ValueOf(parsed), "ModelSet", func(path string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted set holds %s = %v", path, v)
			}
		})
		out, err := parsed.EncodeXML()
		if err != nil {
			t.Fatalf("accepted set failed to encode: %v", err)
		}
		again, err := UnmarshalModelSetXML(out)
		if err != nil {
			t.Fatalf("round trip failed to re-parse: %v", err)
		}
		out2, err := again.EncodeXML()
		if err != nil {
			t.Fatalf("re-parsed set failed to encode: %v", err)
		}
		if !bytes.Equal(out2, out) {
			t.Fatalf("encoding is not a fixed point:\n%s\nre-encoded as\n%s", out, out2)
		}
	})
}

// eachFloat calls fn with every float64 reachable from v, unexported
// fields included, and a path naming it.
func eachFloat(v reflect.Value, path string, fn func(path string, v float64)) {
	switch v.Kind() {
	case reflect.Float64:
		fn(path, v.Float())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			eachFloat(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachFloat(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), path+"[]", fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			eachFloat(it.Value(), path+"["+fmt.Sprint(it.Key())+"]", fn)
		}
	}
}
