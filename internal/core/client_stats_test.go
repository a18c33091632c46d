package core

import (
	"reflect"
	"testing"
)

// fillStats sets every numeric leaf of a ClientStats to base+its ordinal, so
// no two fields share a value and a field nobody handles stands out. It
// fails the test on a field kind it does not know how to fill — a new
// non-numeric field needs a decision, not a silent skip.
func fillStats(t *testing.T, base int64) ClientStats {
	t.Helper()
	var s ClientStats
	n := base
	var fill func(v reflect.Value, name string)
	fill = func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Uint64:
			n++
			v.SetUint(uint64(n))
		case reflect.Int, reflect.Int64:
			n++
			v.SetInt(n)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), name)
			}
		default:
			t.Fatalf("ClientStats.%s has kind %v: teach Add/Sub and this test about it", name, v.Kind())
		}
	}
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		fill(rv.Field(i), rv.Type().Field(i).Name)
	}
	return s
}

// TestClientStatsAddSubCoverEveryField: Add sums (and Sub subtracts) every
// numeric field, so a counter added to ClientStats later cannot be silently
// dropped from aggregates and window deltas. MaxRetries is the one
// non-additive field: Add keeps the larger, Sub keeps the minuend's.
func TestClientStatsAddSubCoverEveryField(t *testing.T) {
	a, b := fillStats(t, 1000), fillStats(t, 5)
	sum := a
	sum.Add(b)
	diff := sum.Sub(b)
	sv, dv := reflect.ValueOf(sum), reflect.ValueOf(diff)
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	var check func(name string, s, d, x, y reflect.Value)
	check = func(name string, s, d, x, y reflect.Value) {
		if s.Kind() == reflect.Array {
			for i := 0; i < s.Len(); i++ {
				check(name, s.Index(i), d.Index(i), x.Index(i), y.Index(i))
			}
			return
		}
		num := func(v reflect.Value) int64 {
			if v.Kind() == reflect.Uint64 {
				return int64(v.Uint())
			}
			return v.Int()
		}
		wantSum, wantDiff := num(x)+num(y), num(x)
		if name == "MaxRetries" {
			wantSum, wantDiff = num(x), num(x) // a's is the larger
		}
		if num(s) != wantSum {
			t.Errorf("Add: %s = %d, want %d", name, num(s), wantSum)
		}
		if num(d) != wantDiff {
			t.Errorf("Sub: %s = %d, want %d", name, num(d), wantDiff)
		}
	}
	for i := 0; i < sv.NumField(); i++ {
		check(sv.Type().Field(i).Name, sv.Field(i), dv.Field(i), av.Field(i), bv.Field(i))
	}
	// The smaller side's maximum must not win.
	small := b
	small.Add(a)
	if small.MaxRetries != a.MaxRetries {
		t.Errorf("Add: MaxRetries = %d, want the larger %d", small.MaxRetries, a.MaxRetries)
	}
}
