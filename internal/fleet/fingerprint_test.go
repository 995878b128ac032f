package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"toto/internal/core"
)

var timeType = reflect.TypeOf(time.Time{})

// fill sets every exported leaf under v to a nonzero value: pointers are
// allocated, slices and maps get one element, so every section of the
// result is present.
func fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	if v.Type() == timeType {
		v.Set(reflect.ValueOf(time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0), path+"[0]")
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fill(t, k, path+".key")
		fill(t, e, path+"[k]")
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	default:
		t.Fatalf("%s: fill does not handle kind %s", path, v.Kind())
	}
}

// mutator applies the target-th mutation of a depth-first walk over v: a
// one-step change of a leaf (one ULP for floats), a changed map key, or a
// pointer, slice or map set to nil. It counts the mutations it passes in
// seen and reports the mutated path once it reaches target.
type mutator struct {
	target, seen int
	done         string
}

func (m *mutator) hit(path string) bool {
	if m.done != "" {
		return false
	}
	if m.seen == m.target {
		m.done = path
		return true
	}
	m.seen++
	return false
}

func (m *mutator) walk(v reflect.Value, path string) {
	if v.Type() == timeType {
		if m.hit(path) {
			v.Set(reflect.ValueOf(v.Interface().(time.Time).Add(time.Nanosecond)))
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if m.hit(path) {
			v.SetBool(!v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if m.hit(path) {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if m.hit(path) {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Float32, reflect.Float64:
		if m.hit(path) {
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		}
	case reflect.String:
		if m.hit(path) {
			v.SetString(v.String() + "y")
		}
	case reflect.Pointer:
		if m.hit(path + "=nil") {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		m.walk(v.Elem(), path)
	case reflect.Slice:
		if m.hit(path + "=nil") {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			m.walk(v.Index(i), path+"[i]")
		}
	case reflect.Map:
		if m.hit(path + "=nil") {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for _, k := range v.MapKeys() {
			e := v.MapIndex(k)
			if m.hit(path + ".key") {
				k2 := reflect.New(k.Type()).Elem()
				k2.Set(k)
				(&mutator{}).walk(k2, "") // bump the key's first leaf
				v.SetMapIndex(k, reflect.Value{})
				v.SetMapIndex(k2, e)
				return
			}
			e2 := reflect.New(e.Type()).Elem()
			e2.Set(e)
			m.walk(e2, path+"[k]")
			if m.done != "" {
				v.SetMapIndex(k, e2)
				return
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField() && m.done == ""; i++ {
			if v.Type().Field(i).IsExported() {
				m.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
}

// filledResult returns a core.Result with every section set.
func filledResult(t *testing.T) *core.Result {
	res := &core.Result{}
	fill(t, reflect.ValueOf(res).Elem(), "Result")
	return res
}

// TestFingerprintCoversEveryField: every exported leaf of core.Result —
// a scalar, a slice element, a map entry or key, or a whole section set
// to nil — moves the fingerprint, so a field added later joins the
// parallel-equals-serial check without new digest code. A NaN cannot be
// encoded and must surface as an error, not as a digest.
func TestFingerprintCoversEveryField(t *testing.T) {
	base, err := Fingerprint(filledResult(t))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Fingerprint(filledResult(t)); again != base {
		t.Fatalf("same result digests differently: %s vs %s", base, again)
	}

	covered := map[string]bool{}
	n := 0
	for ; ; n++ {
		res := filledResult(t)
		m := &mutator{target: n}
		m.walk(reflect.ValueOf(res).Elem(), "Result")
		if m.done == "" {
			break
		}
		fp, err := Fingerprint(res)
		if err != nil {
			t.Fatalf("%s: %v", m.done, err)
		}
		if fp == base {
			t.Errorf("changing %s left the fingerprint at %s", m.done, base)
		}
		field := strings.TrimPrefix(m.done, "Result.")
		if i := strings.IndexAny(field, ".[="); i >= 0 {
			field = field[:i]
		}
		covered[field] = true
	}
	rt := reflect.TypeOf(core.Result{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; !covered[name] {
			t.Errorf("field %s was never mutated", name)
		}
	}
	t.Logf("%d mutations over %d top-level fields", n, rt.NumField())

	nan := filledResult(t)
	nan.Samples[0].CPUUsedCores = math.NaN()
	if fp, err := Fingerprint(nan); err == nil {
		t.Errorf("NaN sample digested to %s, want an error", fp)
	}
}
