package types

// Heap object layout (word-addressed):
//
//	record object:      [header][field words...]
//	fixed array object: [header][element words...]
//	open array object:  [header][length][element words...]
//
// The header holds the descriptor ID; descriptors carry the size and
// pointer map, which is what makes heap tracing "straightforward" in a
// statically typed language (paper §2: Modula-3 requires type
// descriptors in heap objects).

// DescKind discriminates heap object shapes.
type DescKind int

// Heap object shapes.
const (
	DescRecord DescKind = iota
	DescFixedArray
	DescOpenArray
)

// Desc is a runtime type descriptor for one heap object shape.
type Desc struct {
	ID   int
	Kind DescKind
	Name string // diagnostic name

	// DataWords is the object payload size in words excluding header
	// (and excluding the length word for open arrays, whose payload is
	// ElemWords * runtime length).
	DataWords int64

	// PtrOffsets lists pointer word offsets within the payload
	// (records and fixed arrays).
	PtrOffsets []int64

	// Open array element layout.
	ElemWords      int64
	ElemPtrOffsets []int64
}

// HasPointers reports whether objects of this shape can contain pointers.
func (d *Desc) HasPointers() bool {
	return len(d.PtrOffsets) > 0 || len(d.ElemPtrOffsets) > 0
}

// Words returns the total word size, header and length word included,
// of an object of this shape holding n open-array elements (n is
// ignored for the other shapes). Words, SizeAt and
// DescTable.PointerOffsets are the one definition of the layout above
// that every heap and collector reads.
func (d *Desc) Words(n int64) int64 {
	if d.Kind == DescOpenArray {
		return 2 + n*d.ElemWords
	}
	return 1 + d.DataWords
}

// AllocWords is Words for a new object: ok is false for a negative
// open-array length.
func (d *Desc) AllocWords(n int64) (words int64, ok bool) {
	return d.Words(n), n >= 0 || d.Kind != DescOpenArray
}

// SizeAt returns the total word size of the object whose header is
// mem[addr] (valid while that header holds a descriptor ID).
func (dt *DescTable) SizeAt(mem []int64, addr int64) int64 {
	d := dt.Descs[mem[addr]]
	var n int64
	if d.Kind == DescOpenArray {
		n = mem[addr+1]
	}
	return d.Words(n)
}

// PointerOffsets appends to out the word offsets, relative to addr, of
// the pointer slots of the object whose header is mem[addr].
func (dt *DescTable) PointerOffsets(mem []int64, addr int64, out []int64) []int64 {
	d := dt.Descs[mem[addr]]
	if d.Kind != DescOpenArray {
		for _, off := range d.PtrOffsets {
			out = append(out, 1+off)
		}
		return out
	}
	n := mem[addr+1]
	for i := int64(0); i < n; i++ {
		base := 2 + i*d.ElemWords
		for _, off := range d.ElemPtrOffsets {
			out = append(out, base+off)
		}
	}
	return out
}

// DescTable interns runtime descriptors for referent types. Structurally
// equal referents share a descriptor, mirroring typereg's registration
// of canonical type codes.
type DescTable struct {
	Descs []*Desc
	types []*Type // referent type for Descs[i]
}

// NewDescTable returns an empty descriptor table.
func NewDescTable() *DescTable { return &DescTable{} }

// Intern returns the descriptor ID for the referent type t (the T in
// REF T), creating it if needed.
func (dt *DescTable) Intern(t *Type) int {
	for i, existing := range dt.types {
		if Equal(existing, t) {
			return i
		}
	}
	d := buildDesc(len(dt.Descs), t)
	dt.Descs = append(dt.Descs, d)
	dt.types = append(dt.types, t)
	return d.ID
}

// Get returns the descriptor with the given ID.
func (dt *DescTable) Get(id int) *Desc { return dt.Descs[id] }

// Len returns the number of interned descriptors.
func (dt *DescTable) Len() int { return len(dt.Descs) }

func buildDesc(id int, t *Type) *Desc {
	d := &Desc{ID: id, Name: t.String()}
	switch t.K {
	case Record:
		d.Kind = DescRecord
		d.DataWords = t.SizeWords()
		d.PtrOffsets = t.PointerOffsets()
	case Array:
		if t.Open {
			d.Kind = DescOpenArray
			d.ElemWords = t.Elem.SizeWords()
			d.ElemPtrOffsets = t.Elem.PointerOffsets()
		} else {
			d.Kind = DescFixedArray
			d.DataWords = t.SizeWords()
			d.PtrOffsets = t.PointerOffsets()
		}
	default:
		// Scalar referent (REF INTEGER etc.): one-word record-like object.
		d.Kind = DescRecord
		d.DataWords = 1
		if t.IsRef() {
			d.PtrOffsets = []int64{0}
		}
	}
	return d
}
