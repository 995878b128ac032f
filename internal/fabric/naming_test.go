package fabric

import (
	"math"
	"sync"
	"testing"
)

func TestNamingPutGet(t *testing.T) {
	n := NewNamingService()
	if _, _, ok := n.Get("missing"); ok {
		t.Error("Get on missing key succeeded")
	}
	v1 := n.Put("a", []byte("hello"))
	got, ver, ok := n.Get("a")
	if !ok || string(got) != "hello" || ver != v1 {
		t.Fatalf("Get = %q, %d, %v", got, ver, ok)
	}
	if _, ok := n.Float("a"); ok {
		t.Error("Float read an entry written by Put")
	}
	if _, ok := n.Float("missing"); ok {
		t.Error("Float on missing key succeeded")
	}
	// A number entry reads as the shortest decimal that parses back to it.
	for _, tc := range []struct {
		v    float64
		text string
	}{{0.1, "0.1"}, {math.Copysign(0, -1), "-0"}, {1e21, "1e+21"}, {1234.5678, "1234.5678"}, {math.Inf(-1), "-Inf"}} {
		ver := n.PutFloat("n", tc.v)
		if v, ok := n.Float("n"); !ok || math.Float64bits(v) != math.Float64bits(tc.v) {
			t.Errorf("Float after PutFloat(%v) = %v, %v", tc.v, v, ok)
		}
		if got, gotVer, ok := n.Get("n"); !ok || string(got) != tc.text || gotVer != ver {
			t.Errorf("Get after PutFloat(%v) = %q, %d, %v, want %q, %d", tc.v, got, gotVer, ok, tc.text, ver)
		}
	}
	// A value entry is read by Value alone; Value of a byte or number
	// entry finds the key but no value.
	type set struct{ seed int }
	stored := &set{seed: 7}
	vv := n.PutValue("v", stored)
	if got, ok := n.Value("v"); !ok || got != stored {
		t.Errorf("Value after PutValue = %v, %v, want the stored %p", got, ok, stored)
	}
	if _, ver, ok := n.Get("v"); ok || ver != 0 {
		t.Errorf("Get read a value entry: version %d, ok %v", ver, ok)
	}
	if _, ok := n.Float("v"); ok {
		t.Error("Float read a value entry")
	}
	for _, key := range []string{"a", "n"} {
		if got, ok := n.Value(key); !ok || got != nil {
			t.Errorf("Value(%s) = %v, %v, want nil, true", key, got, ok)
		}
	}
	if got, ok := n.Value("missing"); ok || got != nil {
		t.Errorf("Value on missing key = %v, %v", got, ok)
	}
	if n.CurrentVersion() != vv || n.MaxEntryVersion() != vv {
		t.Errorf("PutValue returned version %d; store at %d, newest entry %d", vv, n.CurrentVersion(), n.MaxEntryVersion())
	}
	// A later write of another kind replaces the value.
	n.Put("v", []byte("bytes"))
	if got, ok := n.Value("v"); !ok || got != nil {
		t.Errorf("Value after Put over a value = %v, %v, want nil, true", got, ok)
	}
	if got, _, ok := n.Get("v"); !ok || string(got) != "bytes" {
		t.Errorf("Get after Put over a value = %q, %v", got, ok)
	}
}

func TestNamingVersionsIncrease(t *testing.T) {
	n := NewNamingService()
	v1 := n.Put("a", []byte("1"))
	v2 := n.Put("a", []byte("2"))
	v3 := n.Put("b", []byte("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Errorf("versions not increasing: %d %d %d", v1, v2, v3)
	}
	if _, ver, _ := n.Get("a"); ver != v2 {
		t.Errorf("Get(a) version = %d, want %d", ver, v2)
	}
}

func TestNamingValueIsCopied(t *testing.T) {
	n := NewNamingService()
	buf := []byte("abc")
	n.Put("k", buf)
	buf[0] = 'X'
	got, _, _ := n.Get("k")
	if string(got) != "abc" {
		t.Error("Put did not copy the value")
	}
	got[0] = 'Y'
	again, _, _ := n.Get("k")
	if string(again) != "abc" {
		t.Error("Get did not copy the value")
	}
}

func TestNamingDelete(t *testing.T) {
	n := NewNamingService()
	n.Put("k", []byte("v"))
	n.Delete("k")
	if _, _, ok := n.Get("k"); ok {
		t.Error("deleted key still present")
	}
	n.Delete("k") // idempotent
	if n.Len() != 0 {
		t.Errorf("Len = %d", n.Len())
	}
}

func TestNamingKeysPrefix(t *testing.T) {
	n := NewNamingService()
	n.Put("toto/load/db1", []byte("1"))
	n.Put("toto/load/db2", []byte("2"))
	n.Put("toto/models", []byte("m"))
	keys := n.Keys("toto/load/")
	if len(keys) != 2 || keys[0] != "toto/load/db1" || keys[1] != "toto/load/db2" {
		t.Errorf("Keys = %v", keys)
	}
	if got := n.Keys("other/"); len(got) != 0 {
		t.Errorf("Keys(other) = %v", got)
	}
}

func TestNamingConcurrentAccess(t *testing.T) {
	n := NewNamingService()
	n.Put("shared", []byte("s"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g))
			num := key + "/load"
			for i := 0; i < 1000; i++ {
				n.Put(key, []byte{byte(i)})
				n.Get(key)
				n.Value(key)
				n.PutValue("shared", g)
				n.Value("shared")
				n.PutFloat(num, float64(i))
				if v, ok := n.Float(num); !ok || v != float64(i) {
					t.Errorf("Float(%s) = %v, %v, want %d", num, v, ok, i)
				}
				n.PutFloat("shared/load", float64(g))
				n.Float("shared/load")
				n.Get("shared/load")
			}
		}(g)
	}
	wg.Wait()
	if n.Len() != 18 {
		t.Errorf("Len = %d, want 18", n.Len())
	}
}
