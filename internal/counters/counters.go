// Package counters is the one walker under the repository's counter structs
// (fabric.Stats, racehash.Stats, rart.EngineStats, core.Stats, core.LACStats,
// cuckoo.Stats): a struct made only of uint64 words is added, subtracted and
// loaded word by word, so a counter is declared once — as a field — and
// never listed again. Naming the words for an exporter is obs.Fields' job.
//
// This is the only unsafe in non-test code. The word view is sound only for
// a type Check has passed; the package that owns (or sums) a counter struct
// calls Check for it from its init, so a field of another type stops the
// program before the first walk. Reflection serves Check alone, never a walk:
// fabric.Client.Stats is read once per operation by the repo benchmark, and
// a reflective walker costs ~40× the word view and allocates.
package counters

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// word returns the i-th uint64 word of a Check-ed counter struct.
func word[T any](p *T, i uintptr) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(p), 8*i))
}

// Add adds every counter of src to the same counter of dst.
func Add[T any](dst, src *T) {
	for i := range unsafe.Sizeof(*dst) / 8 {
		*word(dst, i) += *word(src, i)
	}
}

// Sub subtracts every counter of src from the same counter of dst.
func Sub[T any](dst, src *T) {
	for i := range unsafe.Sizeof(*dst) / 8 {
		*word(dst, i) -= *word(src, i)
	}
}

// Load returns a snapshot of src with every counter loaded atomically: safe
// while another goroutine bumps them with atomic adds. The snapshot is a set
// of monotone counters, not an atomic cut across fields.
func Load[T any](src *T) (out T) {
	for i := range unsafe.Sizeof(out) / 8 {
		*word(&out, i) = atomic.LoadUint64(word(src, i))
	}
	return out
}

// Check panics unless T is made only of uint64, [N]uint64 and nested structs
// of those, with no padding — what makes the word view of a T sound.
func Check[T any]() {
	t := reflect.TypeFor[T]()
	if wordsOf(t)*8 != t.Size() {
		panic("counters: " + t.String() + " is padded")
	}
}

// wordsOf counts t's uint64 words; it panics where t holds anything else.
func wordsOf(t reflect.Type) (n uintptr) {
	switch t.Kind() {
	case reflect.Uint64:
		return 1
	case reflect.Array:
		return uintptr(t.Len()) * wordsOf(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			n += wordsOf(t.Field(i).Type)
		}
		return n
	}
	panic("counters: a " + t.String() + " is not a uint64 counter")
}
