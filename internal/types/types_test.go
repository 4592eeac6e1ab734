package types

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestScalarSizes(t *testing.T) {
	for _, tt := range []*Type{IntType, BoolType, CharType} {
		if tt.SizeWords() != 1 {
			t.Errorf("%v size %d", tt, tt.SizeWords())
		}
		if len(tt.PointerOffsets()) != 0 {
			t.Errorf("%v has pointer offsets", tt)
		}
	}
	r := NewRef(IntType)
	if r.SizeWords() != 1 || len(r.PointerOffsets()) != 1 {
		t.Errorf("ref layout wrong")
	}
}

func TestCompositeLayout(t *testing.T) {
	// RECORD a: INTEGER; p: REF...; arr: ARRAY [0..2] OF REF...; END
	rec := NewRecord([]Field{
		{Name: "a", Type: IntType},
		{Name: "p", Type: NewRef(IntType)},
		{Name: "arr", Type: NewFixedArray(0, 2, NewRef(IntType))},
	})
	if rec.SizeWords() != 5 {
		t.Fatalf("size %d, want 5", rec.SizeWords())
	}
	offs := rec.PointerOffsets()
	want := []int64{1, 2, 3, 4}
	if len(offs) != len(want) {
		t.Fatalf("offsets %v", offs)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets %v, want %v", offs, want)
		}
	}
	if rec.Fields[2].Offset != 2 {
		t.Errorf("arr offset %d", rec.Fields[2].Offset)
	}
}

func TestNestedRecordPointerOffsets(t *testing.T) {
	inner := NewRecord([]Field{
		{Name: "x", Type: IntType},
		{Name: "q", Type: NewRef(IntType)},
	})
	outer := NewRecord([]Field{
		{Name: "i", Type: inner},
		{Name: "j", Type: inner},
	})
	offs := outer.PointerOffsets()
	if len(offs) != 2 || offs[0] != 1 || offs[1] != 3 {
		t.Errorf("offsets %v, want [1 3]", offs)
	}
}

func TestFixedArrayBounds(t *testing.T) {
	a := NewFixedArray(7, 13, IntType)
	if a.Len() != 7 || a.SizeWords() != 7 {
		t.Errorf("len %d size %d", a.Len(), a.SizeWords())
	}
	b := NewFixedArray(-3, 3, NewFixedArray(0, 1, IntType))
	if b.SizeWords() != 14 {
		t.Errorf("nested array size %d", b.SizeWords())
	}
}

func TestStructuralEquality(t *testing.T) {
	listA := &Type{K: Ref}
	listA.Elem = NewRecord([]Field{
		{Name: "head", Type: IntType},
		{Name: "tail", Type: listA},
	})
	listB := &Type{K: Ref}
	listB.Elem = NewRecord([]Field{
		{Name: "head", Type: IntType},
		{Name: "tail", Type: listB},
	})
	if !Equal(listA, listB) {
		t.Error("isomorphic recursive types must be equal")
	}
	// Different field name breaks equality.
	listC := &Type{K: Ref}
	listC.Elem = NewRecord([]Field{
		{Name: "hd", Type: IntType},
		{Name: "tail", Type: listC},
	})
	if Equal(listA, listC) {
		t.Error("field names differ; types must not be equal")
	}
	// Two-step cycle equal to one-step cycle (unrolling invariance).
	two := &Type{K: Ref}
	mid := &Type{K: Ref}
	two.Elem = NewRecord([]Field{{Name: "head", Type: IntType}, {Name: "tail", Type: mid}})
	mid.Elem = NewRecord([]Field{{Name: "head", Type: IntType}, {Name: "tail", Type: two}})
	if !Equal(listA, two) {
		t.Error("unrolled recursive type must equal the rolled one")
	}
}

func TestEqualityBasics(t *testing.T) {
	if Equal(IntType, BoolType) {
		t.Error("INTEGER = BOOLEAN?")
	}
	if !Equal(NewFixedArray(1, 5, IntType), NewFixedArray(1, 5, IntType)) {
		t.Error("identical arrays unequal")
	}
	if Equal(NewFixedArray(1, 5, IntType), NewFixedArray(0, 4, IntType)) {
		t.Error("different bounds equal")
	}
	if Equal(NewOpenArray(IntType), NewFixedArray(0, 0, IntType)) {
		t.Error("open vs fixed equal")
	}
	if !AssignableTo(NullType, NewRef(IntType)) {
		t.Error("NIL must be assignable to any REF")
	}
	if AssignableTo(NullType, IntType) {
		t.Error("NIL assignable to INTEGER?")
	}
}

// randType builds a random acyclic type of bounded depth.
func randType(rng *rand.Rand, depth int) *Type {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return IntType
		case 1:
			return BoolType
		default:
			return CharType
		}
	}
	switch rng.Intn(4) {
	case 0:
		return NewRef(randType(rng, depth-1))
	case 1:
		lo := int64(rng.Intn(5))
		return NewFixedArray(lo, lo+int64(rng.Intn(4)), randType(rng, depth-1))
	case 2:
		n := 1 + rng.Intn(3)
		var fs []Field
		for i := 0; i < n; i++ {
			fs = append(fs, Field{Name: string(rune('a' + i)), Type: randType(rng, depth-1)})
		}
		return NewRecord(fs)
	default:
		return IntType
	}
}

// TestEqualProperties: Equal is reflexive and symmetric on random types.
func TestEqualProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := randType(rng, 3)
		b := randType(rng, 3)
		if !Equal(a, a) {
			t.Fatalf("not reflexive: %v", a)
		}
		if Equal(a, b) != Equal(b, a) {
			t.Fatalf("not symmetric: %v vs %v", a, b)
		}
	}
}

// TestPointerOffsetsWithinSize: all pointer offsets are inside the value.
func TestPointerOffsetsWithinSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := randType(rng, 3)
		size := typ.SizeWords()
		for _, off := range typ.PointerOffsets() {
			if off < 0 || off >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDescTableIntern(t *testing.T) {
	dt := NewDescTable()
	rec := NewRecord([]Field{{Name: "x", Type: NewRef(IntType)}})
	id1 := dt.Intern(rec)
	// Structurally equal referent: same descriptor.
	rec2 := NewRecord([]Field{{Name: "x", Type: NewRef(IntType)}})
	if id2 := dt.Intern(rec2); id2 != id1 {
		t.Errorf("structurally equal types got different descriptors: %d vs %d", id1, id2)
	}
	arr := NewOpenArray(NewRef(IntType))
	id3 := dt.Intern(arr)
	if id3 == id1 {
		t.Error("different types share a descriptor")
	}
	d := dt.Get(id3)
	if d.Kind != DescOpenArray || d.ElemWords != 1 || len(d.ElemPtrOffsets) != 1 {
		t.Errorf("open array descriptor wrong: %+v", d)
	}
	dr := dt.Get(id1)
	if dr.Kind != DescRecord || dr.DataWords != 1 || len(dr.PtrOffsets) != 1 || dr.PtrOffsets[0] != 0 {
		t.Errorf("record descriptor wrong: %+v", dr)
	}
	if !dr.HasPointers() {
		t.Error("record descriptor should have pointers")
	}
}

func TestDescFixedArray(t *testing.T) {
	dt := NewDescTable()
	id := dt.Intern(NewFixedArray(1, 4, NewRef(IntType)))
	d := dt.Get(id)
	if d.Kind != DescFixedArray || d.DataWords != 4 || len(d.PtrOffsets) != 4 {
		t.Errorf("fixed array descriptor wrong: %+v", d)
	}
}

// TestObjectLayout covers the layout rule the heaps and collectors
// share: sizes of each shape from the descriptor alone and from an
// object in memory, the pointer slots of each, and the refusal of a
// negative open-array length.
func TestObjectLayout(t *testing.T) {
	dt := NewDescTable()
	ref := NewRef(IntType)
	rec := dt.Intern(NewRecord([]Field{{Name: "a", Type: IntType}, {Name: "p", Type: ref}}))
	fixed := dt.Intern(NewFixedArray(0, 2, ref))
	open := dt.Intern(NewOpenArray(NewRecord([]Field{{Name: "n", Type: IntType}, {Name: "q", Type: ref}})))
	scalar := dt.Intern(IntType)

	mem := make([]int64, 32)
	objs := []struct {
		id          int
		n           int64
		words       int64
		ptrSlots    []int64
		description string
	}{
		{rec, 0, 3, []int64{2}, "record"},
		{fixed, 0, 4, []int64{1, 2, 3}, "fixed array"},
		{open, 3, 8, []int64{3, 5, 7}, "open array of two-word records"},
		{open, 0, 2, nil, "empty open array"},
		{scalar, 0, 2, nil, "scalar referent"},
	}
	addr := int64(1)
	for _, o := range objs {
		d := dt.Get(o.id)
		if w, ok := d.AllocWords(o.n); !ok || w != o.words || d.Words(o.n) != o.words {
			t.Errorf("%s: AllocWords %d, %v and Words %d, want %d", o.description, w, ok, d.Words(o.n), o.words)
		}
		mem[addr] = int64(o.id)
		if d.Kind == DescOpenArray {
			mem[addr+1] = o.n
		}
		if w := dt.SizeAt(mem, addr); w != o.words {
			t.Errorf("%s: SizeAt %d, want %d", o.description, w, o.words)
		}
		if got := dt.PointerOffsets(mem, addr, nil); !slices.Equal(got, o.ptrSlots) {
			t.Errorf("%s: pointer slots %v, want %v", o.description, got, o.ptrSlots)
		}
		addr += o.words
	}
	if _, ok := dt.Get(open).AllocWords(-1); ok {
		t.Error("a negative open-array length was accepted")
	}
	if _, ok := dt.Get(rec).AllocWords(-1); !ok {
		t.Error("a record allocation was refused for its ignored length")
	}
}

func TestTypeString(t *testing.T) {
	list := &Type{K: Ref, Name: "List"}
	list.Elem = NewRecord([]Field{{Name: "tail", Type: list}})
	s := list.String()
	if s == "" {
		t.Error("empty string for recursive type")
	}
	// Must terminate (cycle guard) — reaching here is the test.
}
