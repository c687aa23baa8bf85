package counters_test

import (
	"math/rand"
	"reflect"
	"testing"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

// randomize fills every uint64 word of a counter struct (arrays and nested
// structs included) with a random value.
func randomize(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomize(v.Index(i), rng)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(v.Field(i), rng)
		}
	}
}

func random[T any](rng *rand.Rand) (v T) {
	randomize(reflect.ValueOf(&v).Elem(), rng)
	return v
}

// fieldwise checks got against want(a's field, b's field) on every named
// counter, through obs.Fields — the naming walker, which shares no code with
// the methods under test.
func fieldwise(t *testing.T, op string, a, b, got any, want func(x, y uint64) uint64) {
	t.Helper()
	fa, fb, fg := obs.Fields(a), obs.Fields(b), obs.Fields(got)
	if len(fa) == 0 || len(fg) != len(fa) {
		t.Fatalf("%T: %d named counters in, %d out", a, len(fa), len(fg))
	}
	for k, x := range fa {
		if fg[k] != want(x, fb[k]) {
			t.Errorf("%T.%s: counter %s = %d, want %d", a, op, k, fg[k], want(x, fb[k]))
		}
	}
}

func plus(x, y uint64) uint64  { return x + y }
func minus(x, y uint64) uint64 { return x - y }

// TestStatsMethodsFieldwise is the table the word walker was written against:
// the exported Add / Sub of every counter struct, on random values, against a
// per-field reference. It passes on the hand-written methods these replaced
// and on the one-line bodies they are now.
func TestStatsMethodsFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		fa, fb := random[fabric.Stats](rng), random[fabric.Stats](rng)
		fieldwise(t, "Add", fa, fb, fa.Add(fb), plus)
		fieldwise(t, "Sub", fa, fb, fa.Sub(fb), minus)
		ha, hb := random[racehash.Stats](rng), random[racehash.Stats](rng)
		fieldwise(t, "Add", ha, hb, ha.Add(hb), plus)
		ea, eb := random[rart.EngineStats](rng), random[rart.EngineStats](rng)
		fieldwise(t, "Add", ea, eb, ea.Add(eb), plus)
		ca, cb := random[core.Stats](rng), random[core.Stats](rng)
		fieldwise(t, "Add", ca, cb, ca.Add(cb), plus)
		la, lb := random[core.LACStats](rng), random[core.LACStats](rng)
		fieldwise(t, "Add", la, lb, la.Add(lb), plus)
	}
}
