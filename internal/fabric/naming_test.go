package fabric

import (
	"math"
	"sync"
	"testing"
)

func TestNamingPutGet(t *testing.T) {
	n := NewNamingService()
	if _, ok := n.Float("missing"); ok {
		t.Error("Float on missing key succeeded")
	}
	// A number entry reads back with its exact bits.
	for _, v := range []float64{0.1, math.Copysign(0, -1), 1e21, 1234.5678, math.Inf(-1)} {
		ver := n.PutFloat("n", v)
		if got, ok := n.Float("n"); !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("Float after PutFloat(%v) = %v, %v", v, got, ok)
		}
		if n.CurrentVersion() != ver {
			t.Errorf("PutFloat(%v) returned version %d; store at %d", v, ver, n.CurrentVersion())
		}
	}
	// A value entry is read by Value alone; Value of a number entry finds
	// the key but no value.
	type set struct{ seed int }
	stored := &set{seed: 7}
	vv := n.PutValue("v", stored)
	if got, ok := n.Value("v"); !ok || got != stored {
		t.Errorf("Value after PutValue = %v, %v, want the stored %p", got, ok, stored)
	}
	if _, ok := n.Float("v"); ok {
		t.Error("Float read a value entry")
	}
	if got, ok := n.Value("n"); !ok || got != nil {
		t.Errorf("Value(n) = %v, %v, want nil, true", got, ok)
	}
	if got, ok := n.Value("missing"); ok || got != nil {
		t.Errorf("Value on missing key = %v, %v", got, ok)
	}
	if n.CurrentVersion() != vv || n.MaxEntryVersion() != vv {
		t.Errorf("PutValue returned version %d; store at %d, newest entry %d", vv, n.CurrentVersion(), n.MaxEntryVersion())
	}
	// A later write of another kind replaces the value.
	n.PutFloat("v", 2.5)
	if got, ok := n.Value("v"); !ok || got != nil {
		t.Errorf("Value after PutFloat over a value = %v, %v, want nil, true", got, ok)
	}
	if got, ok := n.Float("v"); !ok || got != 2.5 {
		t.Errorf("Float after PutFloat over a value = %v, %v", got, ok)
	}
}

func TestNamingVersionsIncrease(t *testing.T) {
	n := NewNamingService()
	v1 := n.PutFloat("a", 1)
	v2 := n.PutFloat("a", 2)
	v3 := n.PutValue("b", 3)
	if !(v1 < v2 && v2 < v3) {
		t.Errorf("versions not increasing: %d %d %d", v1, v2, v3)
	}
	if got := n.MaxEntryVersion(); got != v3 {
		t.Errorf("newest entry version = %d, want %d", got, v3)
	}
}

func TestNamingDelete(t *testing.T) {
	n := NewNamingService()
	n.PutFloat("k", 1)
	n.Delete("k")
	if _, ok := n.Float("k"); ok {
		t.Error("deleted key still present")
	}
	n.Delete("k") // idempotent
	if n.Len() != 0 {
		t.Errorf("Len = %d", n.Len())
	}
}

func TestNamingConcurrentAccess(t *testing.T) {
	n := NewNamingService()
	n.PutValue("shared", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g))
			num := key + "/load"
			for i := 0; i < 1000; i++ {
				n.PutValue(key, i)
				n.Value(key)
				n.PutValue("shared", g)
				n.Value("shared")
				n.PutFloat(num, float64(i))
				if v, ok := n.Float(num); !ok || v != float64(i) {
					t.Errorf("Float(%s) = %v, %v, want %d", num, v, ok, i)
				}
				n.PutFloat("shared/load", float64(g))
				n.Float("shared/load")
			}
		}(g)
	}
	wg.Wait()
	if n.Len() != 18 {
		t.Errorf("Len = %d, want 18", n.Len())
	}
}
