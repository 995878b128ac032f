package fabric

import (
	"errors"
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
			for i := 0; i < 1000; i++ {
				n.Put(key, []byte{byte(i)})
				n.Get(key)
				Decoded(n, key, func(b []byte) (int, error) { return len(b), nil })
				Decoded(n, "shared", func(b []byte) (int, error) { return len(b), nil })
			}
		}(g)
	}
	wg.Wait()
	if n.Len() != 9 {
		t.Errorf("Len = %d, want 9", n.Len())
	}
}

func TestNamingDecodedMemoizesPerVersion(t *testing.T) {
	n := NewNamingService()
	calls := 0
	decode := func(b []byte) (*string, error) {
		calls++
		if string(b) == "bad" {
			return nil, errors.New("malformed")
		}
		s := string(b)
		return &s, nil
	}
	if _, ok, err := Decoded(n, "k", decode); ok || err != nil || calls != 0 {
		t.Fatalf("missing key: ok=%v err=%v calls=%d", ok, err, calls)
	}
	n.Put("k", []byte("one"))
	a, ok, err := Decoded(n, "k", decode)
	b, _, _ := Decoded(n, "k", decode)
	if !ok || err != nil || *a != "one" || a != b || calls != 1 {
		t.Fatalf("first version: %v %v %v, shared=%v, calls=%d", *a, ok, err, a == b, calls)
	}
	// Every Decoded call is one counted read, memo hit or not.
	if n.Reads() != 3 {
		t.Errorf("Reads = %d, want 3", n.Reads())
	}
	// A Put drops the memo; so does a Delete.
	n.Put("k", []byte("two"))
	if c, _, _ := Decoded(n, "k", decode); *c != "two" || calls != 2 {
		t.Fatalf("after Put: %q, calls=%d", *c, calls)
	}
	n.Delete("k")
	n.Put("k", []byte("two"))
	Decoded(n, "k", decode)
	if calls != 3 {
		t.Errorf("Delete kept the memo: calls=%d", calls)
	}
	// A decode error is memoized with the version, like a value.
	n.Put("k", []byte("bad"))
	for i := 0; i < 2; i++ {
		if _, ok, err := Decoded(n, "k", decode); !ok || err == nil {
			t.Fatalf("malformed value: ok=%v err=%v", ok, err)
		}
	}
	if calls != 4 || n.Decodes() != 4 {
		t.Errorf("calls=%d Decodes=%d, want 4 each", calls, n.Decodes())
	}
}
