package difftest

import "repro/internal/gctab"

// DefaultKernelScheme is the encoding the promoted kernels replay
// under: the paper's best scheme (δ-main + Packing + Previous), the
// production default. The full 8-scheme sweep already runs kernels of
// these shapes through the seeded generator.
var DefaultKernelScheme = gctab.Scheme{Packing: true, Previous: true}

// Promotion path: the generator's adversarial derived-pointer
// constructs (subarrayLoop, nestedWith, pathSelect — the
// array-manipulation habits Colnet & Sonntag catalog, and the §3
// derived-value cases the tables must describe) exist in thousands of
// anonymous seeded programs, but nothing pins them as *named*
// programs. Kernels freezes one distilled program per construct: each
// is written in the generator's own idiom (same List/Vec types, same
// guard discipline, same fold-everything-into-output epilogue), sized
// so every round moves the construct's base objects through a
// compacting collection. They run divergence-fatal through
// Execute in TestPromotedKernels, over the KernelCells matrix slice.

// Kernel is one promoted adversarial program.
type Kernel struct {
	// Name is the kernel name ("subarray-walk", ...).
	Name string
	// Construct names the generator emitter this program distills.
	Construct string
	// Detail says what the kernel stresses.
	Detail string
	// Source is the .m3 program.
	Source string
}

// subarrayWalkSource is the promotion of gen.subarrayLoop: a SUBARRAY
// window stays bound — its derived base pointer live — while list
// churn inside the window forces collections that move the base
// array. Every element read after a collection goes through the
// re-derived window.
const subarrayWalkSource = `MODULE SubarrayWalk;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
TYPE Vec = REF ARRAY OF INTEGER;
VAR gl: List;
VAR gv: Vec;
PROCEDURE SumList(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END SumList;
PROCEDURE SumVec(v: Vec): INTEGER =
  VAR s, i: INTEGER;
  BEGIN
    s := 0;
    IF v # NIL THEN
      FOR i := 0 TO NUMBER(v) - 1 DO s := s + v[i]; END;
    END;
    RETURN s;
  END SumVec;
PROCEDURE Walk(rounds: INTEGER): INTEGER =
  VAR i, j, s: INTEGER;
  BEGIN
    s := 0;
    gv := NEW(Vec, 16);
    FOR i := 0 TO NUMBER(gv) - 1 DO gv[i] := i * 5; END;
    FOR i := 1 TO rounds DO
      WITH sa = SUBARRAY(gv, i MOD (NUMBER(gv) - 4), 4) DO
        FOR j := 0 TO NUMBER(sa) - 1 DO
          sa[j] := sa[j] + i;
          WITH nw = NEW(List) DO nw.head := sa[j]; nw.tail := gl; gl := nw; END;
        END;
        GcCollect();
        s := s + sa[0] + sa[3];
      END;
    END;
    RETURN s;
  END Walk;
BEGIN
  gl := NIL;
  PutInt(Walk(40)); PutLn();
  PutInt(SumList(gl)); PutChar(' '); PutInt(SumVec(gv)); PutLn();
END SubarrayWalk.
`

// withMoverSource is the promotion of gen.nestedWith: two stacked WITH
// field aliases (both derived pointers into different objects) stay in
// scope while an allocation and a forced collection move both base
// records out from under them.
const withMoverSource = `MODULE WithMover;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
TYPE Vec = REF ARRAY OF INTEGER;
VAR gl, gm: List;
VAR gv: Vec;
PROCEDURE SumList(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END SumList;
PROCEDURE Mix(rounds: INTEGER): INTEGER =
  VAR i, s: INTEGER;
  BEGIN
    s := 0;
    gl := NEW(List);
    gl.head := 3;
    gm := NEW(List);
    gm.head := 7;
    FOR i := 1 TO rounds DO
      WITH w = gl.head DO
        w := w + i;
        WITH u = gm.head DO
          gv := NEW(Vec, 12);
          GcCollect();
          u := u + w;
          s := s + u;
        END;
      END;
      WITH nw = NEW(List) DO nw.head := i; nw.tail := gm; gm := nw; END;
    END;
    RETURN s;
  END Mix;
BEGIN
  PutInt(Mix(48)); PutLn();
  PutInt(SumList(gl)); PutChar(' '); PutInt(SumList(gm)); PutLn();
END WithMover.
`

// interiorChaseSource is the promotion of gen.pathSelect plus the
// chain-tail walker: a base pointer chosen on a data-dependent path is
// chased node by node, with a derived field alias held across an
// allocation and a forced collection at every step — so each step of
// the chase crosses a compaction that moved the node it is standing
// on.
const interiorChaseSource = `MODULE InteriorChase;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
TYPE Vec = REF ARRAY OF INTEGER;
VAR gl, gm, gt: List;
VAR gv: Vec;
PROCEDURE SumList(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END SumList;
PROCEDURE Build(n: INTEGER): List =
  VAR l: List; i: INTEGER;
  BEGIN
    l := NIL;
    FOR i := 1 TO n DO
      WITH nw = NEW(List) DO nw.head := i; nw.tail := l; l := nw; END;
    END;
    RETURN l;
  END Build;
PROCEDURE Chase(rounds: INTEGER): INTEGER =
  VAR p: List; i, s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO rounds DO
      IF i MOD 2 = 0 THEN gt := gl; ELSE gt := gm; END;
      p := gt;
      WHILE p # NIL DO
        WITH w = p.head DO
          gv := NEW(Vec, 8);
          w := w + 1;
        END;
        GcCollect();
        s := s + p.head;
        p := p.tail;
      END;
    END;
    RETURN s;
  END Chase;
BEGIN
  gl := Build(6);
  gm := Build(4);
  PutInt(Chase(10)); PutLn();
  PutInt(SumList(gl)); PutChar(' '); PutInt(SumList(gm)); PutLn();
END InteriorChase.
`

// Kernels returns the promoted adversarial programs in a fixed order.
func Kernels() []Kernel {
	return []Kernel{
		{
			Name:      "subarray-walk",
			Construct: "subarrayLoop",
			Detail:    "SUBARRAY window walked while churn moves the base array through collections",
			Source:    subarrayWalkSource,
		},
		{
			Name:      "with-mover",
			Construct: "nestedWith",
			Detail:    "stacked WITH field aliases live across an allocation and a forced collection",
			Source:    withMoverSource,
		},
		{
			Name:      "interior-chase",
			Construct: "pathSelect",
			Detail:    "path-dependent base chased node by node through a compacting collection per step",
			Source:    interiorChaseSource,
		},
	}
}

// KernelCells is the matrix slice each promoted kernel replays under:
// both precise collectors at serial and wide trace widths, both
// dispatchers, and both collection modes — the dimensions PRs 5–9
// added, every one of which must be behaviorally invisible — plus one
// conservative reference cell. The decode cache stays on and walk
// width serial, matching the production default; the full cache/walk
// sweep already covers kernels of this shape through the seeded
// generator.
func KernelCells() []Cell {
	var cells []Cell
	for _, col := range []string{CollectorGC, CollectorGen} {
		for _, tw := range []int{1, 8} {
			for _, th := range []bool{false, true} {
				for _, conc := range []bool{false, true} {
					cells = append(cells, Cell{
						Collector: col, Scheme: DefaultKernelScheme,
						Cache: true, Workers: 1, TraceWorkers: tw,
						HeapLive: true, Threaded: th, Concurrent: conc,
					})
				}
			}
		}
	}
	cells = append(cells, Cell{
		Collector: CollectorConservative, Scheme: DefaultKernelScheme,
		Cache: true, Workers: 1, TraceWorkers: 1, HeapLive: true,
	})
	return cells
}
