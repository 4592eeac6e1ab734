// Package bench holds the paper's four measurement programs —
// typereg, FieldList, takl, and destroy (§6.1) — re-implemented in the
// mthree source language from the paper's descriptions, the workload
// generators the repository's benchmark and tests share, and the
// harness that regenerates Table 1, Table 2, the §6.2/§6.3
// measurements and the §5.2 refinements.
package bench

import "fmt"

// TyperegSource implements type registration and type comparison using
// structural equivalence (the paper: "typereg implements type
// registration and type comparisons using structural equivalence for
// our Modula-3 runtime system"). Many short procedures with frequent
// calls — the paper's stated worst case for per-call gc-points.
const TyperegSource = `
MODULE TypeReg;
CONST KInt = 0; KBool = 1; KChar = 2; KRef = 3; KArr = 4; KRec = 5;
CONST Rounds = 40;
TYPE Type = REF RECORD kind, lo, hi: INTEGER; elem: Type; fields: FieldL; END;
TYPE FieldL = REF RECORD name: INTEGER; t: Type; next: FieldL; END;
TYPE Pair = REF RECORD a, b: Type; next: Pair; END;
TYPE Reg = REF RECORD t: Type; id: INTEGER; next: Reg; END;
VAR registry: Reg;
VAR nextId, hits, misses: INTEGER;

PROCEDURE MkBase(k: INTEGER): Type =
  VAR t: Type;
  BEGIN
    t := NEW(Type);
    t.kind := k;
    RETURN t;
  END MkBase;

PROCEDURE MkRef(e: Type): Type =
  VAR t: Type;
  BEGIN
    t := NEW(Type);
    t.kind := KRef;
    t.elem := e;
    RETURN t;
  END MkRef;

PROCEDURE MkArr(lo, hi: INTEGER; e: Type): Type =
  VAR t: Type;
  BEGIN
    t := NEW(Type);
    t.kind := KArr;
    t.lo := lo;
    t.hi := hi;
    t.elem := e;
    RETURN t;
  END MkArr;

PROCEDURE MkField(name: INTEGER; ft: Type; rest: FieldL): FieldL =
  VAR f: FieldL;
  BEGIN
    f := NEW(FieldL);
    f.name := name;
    f.t := ft;
    f.next := rest;
    RETURN f;
  END MkField;

PROCEDURE MkRec(fields: FieldL): Type =
  VAR t: Type;
  BEGIN
    t := NEW(Type);
    t.kind := KRec;
    t.fields := fields;
    RETURN t;
  END MkRec;

PROCEDURE Assumed(asm: Pair; a, b: Type): BOOLEAN =
  VAR p: Pair;
  BEGIN
    p := asm;
    WHILE p # NIL DO
      IF (p.a = a) AND (p.b = b) THEN RETURN TRUE; END;
      p := p.next;
    END;
    RETURN FALSE;
  END Assumed;

PROCEDURE Push(asm: Pair; a, b: Type): Pair =
  VAR p: Pair;
  BEGIN
    p := NEW(Pair);
    p.a := a;
    p.b := b;
    p.next := asm;
    RETURN p;
  END Push;

PROCEDURE EqFields(f, g: FieldL; asm: Pair): BOOLEAN =
  BEGIN
    WHILE (f # NIL) AND (g # NIL) DO
      IF f.name # g.name THEN RETURN FALSE; END;
      IF NOT Eq(f.t, g.t, asm) THEN RETURN FALSE; END;
      f := f.next;
      g := g.next;
    END;
    RETURN (f = NIL) AND (g = NIL);
  END EqFields;

PROCEDURE Eq(a, b: Type; asm: Pair): BOOLEAN =
  BEGIN
    IF a = b THEN RETURN TRUE; END;
    IF (a = NIL) OR (b = NIL) THEN RETURN FALSE; END;
    IF a.kind # b.kind THEN RETURN FALSE; END;
    IF a.kind <= KChar THEN RETURN TRUE; END;
    IF Assumed(asm, a, b) THEN RETURN TRUE; END;
    asm := Push(asm, a, b);
    IF a.kind = KRef THEN RETURN Eq(a.elem, b.elem, asm); END;
    IF a.kind = KArr THEN
      IF (a.lo # b.lo) OR (a.hi # b.hi) THEN RETURN FALSE; END;
      RETURN Eq(a.elem, b.elem, asm);
    END;
    RETURN EqFields(a.fields, b.fields, asm);
  END Eq;

PROCEDURE Register(t: Type): INTEGER =
  VAR r: Reg;
  BEGIN
    r := registry;
    WHILE r # NIL DO
      IF Eq(r.t, t, NIL) THEN
        INC(hits);
        RETURN r.id;
      END;
      r := r.next;
    END;
    INC(misses);
    r := NEW(Reg);
    r.t := t;
    r.id := nextId;
    INC(nextId);
    r.next := registry;
    registry := r;
    RETURN r.id;
  END Register;

PROCEDURE ListOf(e: Type): Type =
  VAR t: Type;
  BEGIN
    (* a recursive type: REF RECORD head: e; tail: <self> END *)
    t := NEW(Type);
    t.kind := KRef;
    t.elem := MkRec(MkField(1, e, MkField(2, t, NIL)));
    RETURN t;
  END ListOf;

PROCEDURE Round(i: INTEGER): INTEGER =
  (* Builds a batch of type graphs first, keeping them all live across
     the registration calls: more live pointers than registers, so some
     spill to the frame (stack pointer table entries). *)
  VAR base, t1, t2, t3, t4, t5, t6, t7, t8, t9: Type; s: INTEGER;
  BEGIN
    base := MkBase(i MOD 3);
    t1 := MkRef(base);
    t2 := MkArr(0, 7 + i MOD 2, base);
    t3 := MkRec(MkField(1, base, MkField(2, t1, NIL)));
    t4 := ListOf(base);
    t5 := ListOf(MkBase(i MOD 3)); (* structurally equal to t4 *)
    t6 := MkRef(MkArr(1, 4, t1));
    t7 := MkRec(MkField(3, t2, MkField(4, t6, NIL)));
    t8 := MkRef(t7);
    t9 := MkArr(0, 3, t8);
    s := Register(base);
    s := s + Register(t1);
    s := s + Register(t2);
    s := s + Register(t3);
    s := s + Register(t4);
    s := s + Register(t5);
    s := s + Register(t6);
    s := s + Register(t7);
    s := s + Register(t8);
    s := s + Register(t9);
    RETURN s;
  END Round;

VAR i, acc: INTEGER;
BEGIN
  registry := NIL;
  nextId := 0;
  acc := 0;
  FOR i := 1 TO Rounds DO
    acc := acc + Round(i);
  END;
  PutInt(nextId); PutChar(' ');
  PutInt(hits); PutChar(' ');
  PutInt(misses); PutChar(' ');
  PutInt(acc); PutLn();
END TypeReg.
`

// FieldListSource implements command parsing for a UNIX shell (the
// paper: "FieldList implements command parsing for a UNIX shell"):
// splitting command lines into field lists with quoting, building and
// concatenating argument vectors.
const FieldListSource = `
MODULE FieldList;
CONST Rounds = 30;
TYPE Field = REF RECORD s: TEXT; next: Field; END;
VAR totalFields, totalChars, hash: INTEGER;

PROCEDURE IsSpace(c: CHAR): BOOLEAN =
  BEGIN
    RETURN (c = ' ') OR (c = '	');
  END IsSpace;

PROCEDURE CopyRange(t: TEXT; from, n: INTEGER): TEXT =
  VAR r: TEXT; i: INTEGER;
  BEGIN
    r := NEW(TEXT, n);
    FOR i := 0 TO n - 1 DO
      r[i] := t[from + i];
    END;
    RETURN r;
  END CopyRange;

PROCEDURE Reverse(f: Field): Field =
  VAR out, nx: Field;
  BEGIN
    out := NIL;
    WHILE f # NIL DO
      nx := f.next;
      f.next := out;
      out := f;
      f := nx;
    END;
    RETURN out;
  END Reverse;

PROCEDURE Cons(s: TEXT; rest: Field): Field =
  VAR f: Field;
  BEGIN
    f := NEW(Field);
    f.s := s;
    f.next := rest;
    RETURN f;
  END Cons;

PROCEDURE Split(line: TEXT): Field =
  VAR out: Field; i, n, start: INTEGER; inQuote: BOOLEAN;
  BEGIN
    out := NIL;
    n := NUMBER(line);
    i := 0;
    WHILE i < n DO
      WHILE (i < n) AND IsSpace(line[i]) DO INC(i); END;
      IF i >= n THEN EXIT; END;
      IF line[i] = '"' THEN
        INC(i);
        start := i;
        inQuote := TRUE;
        WHILE (i < n) AND inQuote DO
          IF line[i] = '"' THEN inQuote := FALSE; ELSE INC(i); END;
        END;
        out := Cons(CopyRange(line, start, i - start), out);
        IF i < n THEN INC(i); END;
      ELSE
        start := i;
        WHILE (i < n) AND NOT IsSpace(line[i]) DO INC(i); END;
        out := Cons(CopyRange(line, start, i - start), out);
      END;
    END;
    RETURN Reverse(out);
  END Split;

PROCEDURE CountFields(f: Field): INTEGER =
  VAR n: INTEGER;
  BEGIN
    n := 0;
    WHILE f # NIL DO INC(n); f := f.next; END;
    RETURN n;
  END CountFields;

PROCEDURE HashField(s: TEXT): INTEGER =
  VAR h, i: INTEGER;
  BEGIN
    h := 5381;
    FOR i := 0 TO NUMBER(s) - 1 DO
      h := (h * 33 + ORD(s[i])) MOD 1000000007;
    END;
    RETURN h;
  END HashField;

PROCEDURE Append(a, b: Field): Field =
  BEGIN
    IF a = NIL THEN RETURN b; END;
    RETURN Cons(a.s, Append(a.next, b));
  END Append;

PROCEDURE Process(line: TEXT) =
  VAR f, g: Field;
  BEGIN
    f := Split(line);
    totalFields := totalFields + CountFields(f);
    g := f;
    WHILE g # NIL DO
      totalChars := totalChars + NUMBER(g.s);
      hash := (hash + HashField(g.s)) MOD 1000000007;
      g := g.next;
    END;
    g := Append(f, Split("2>&1 | sort -u"));
    totalFields := totalFields + CountFields(g);
  END Process;

PROCEDURE Pipeline() =
  (* Parses every stage of a shell pipeline before processing any of
     them, keeping all the field lists (and their texts) live at once
     across many calls. *)
  VAR c1, c2, c3, c4, c5, c6, all: Field; a1, a2, a3: TEXT;
  BEGIN
    a1 := CopyRange("cat access.log error.log", 0, 24);
    a2 := CopyRange("cut -d' ' -f1", 0, 13);
    a3 := CopyRange("sort | uniq -c | sort -rn", 0, 25);
    c1 := Split(a1);
    c2 := Split(a2);
    c3 := Split(a3);
    c4 := Split("head -20");
    c5 := Split("tee \"top talkers.txt\"");
    c6 := Split("wc -l");
    all := Append(c1, Append(c2, Append(c3, Append(c4, Append(c5, c6)))));
    totalFields := totalFields + CountFields(all);
    totalChars := totalChars + NUMBER(a1) + NUMBER(a2) + NUMBER(a3);
    hash := (hash + HashField(c5.s)) MOD 1000000007;
  END Pipeline;

VAR r: INTEGER;
BEGIN
  totalFields := 0;
  totalChars := 0;
  hash := 0;
  FOR r := 1 TO Rounds DO
    Process("ls -l /usr/local/bin");
    Process("grep -n \"garbage collection\" paper.txt");
    Process("  cc   -O2 -o gcmaps   main.c tables.c   ");
    Process("find . -name \"*.m3\" -print");
    Process("echo \"a b c\" d \"e f\"");
    Pipeline();
  END;
  PutInt(totalFields); PutChar(' ');
  PutInt(totalChars); PutChar(' ');
  PutInt(hash); PutLn();
END FieldList.
`

// TaklSource is Gabriel's takl benchmark [11]: the Takeuchi function
// computed on lists.
const TaklSource = `
MODULE Takl;
CONST X = 14; Y = 10; Z = 5;
TYPE List = REF RECORD head: INTEGER; tail: List; END;

PROCEDURE Listn(n: INTEGER): List =
  VAR l: List;
  BEGIN
    IF n = 0 THEN RETURN NIL; END;
    l := NEW(List);
    l.head := n;
    l.tail := Listn(n - 1);
    RETURN l;
  END Listn;

PROCEDURE Shorterp(x, y: List): BOOLEAN =
  BEGIN
    IF y = NIL THEN RETURN FALSE; END;
    IF x = NIL THEN RETURN TRUE; END;
    RETURN Shorterp(x.tail, y.tail);
  END Shorterp;

PROCEDURE Mas(x, y, z: List): List =
  BEGIN
    IF NOT Shorterp(y, x) THEN RETURN z; END;
    RETURN Mas(Mas(x.tail, y, z), Mas(y.tail, z, x), Mas(z.tail, x, y));
  END Mas;

PROCEDURE Length(l: List): INTEGER =
  VAR n: INTEGER;
  BEGIN
    n := 0;
    WHILE l # NIL DO INC(n); l := l.tail; END;
    RETURN n;
  END Length;

VAR r: List;
BEGIN
  r := Mas(Listn(X), Listn(Y), Listn(Z));
  PutInt(Length(r)); PutLn();
END Takl.
`

// TaklLoopSource is takl under allocation pressure: the same
// Takeuchi-on-lists computation repeated iters times, rebuilding the
// argument lists each round so the collector actually runs. Plain takl
// allocates only ~90 words total (Mas allocates nothing), so it never
// collects at any heap size; this variant collects once the heap is
// smaller than what a round allocates.
func TaklLoopSource(iters int) string {
	return fmt.Sprintf(`
MODULE Takl;
CONST X = 14; Y = 10; Z = 5; Iters = %d;
TYPE List = REF RECORD head: INTEGER; tail: List; END;

PROCEDURE Listn(n: INTEGER): List =
  VAR l: List;
  BEGIN
    IF n = 0 THEN RETURN NIL; END;
    l := NEW(List);
    l.head := n;
    l.tail := Listn(n - 1);
    RETURN l;
  END Listn;

PROCEDURE Shorterp(x, y: List): BOOLEAN =
  BEGIN
    IF y = NIL THEN RETURN FALSE; END;
    IF x = NIL THEN RETURN TRUE; END;
    RETURN Shorterp(x.tail, y.tail);
  END Shorterp;

PROCEDURE Mas(x, y, z: List): List =
  BEGIN
    IF NOT Shorterp(y, x) THEN RETURN z; END;
    RETURN Mas(Mas(x.tail, y, z), Mas(y.tail, z, x), Mas(z.tail, x, y));
  END Mas;

PROCEDURE Length(l: List): INTEGER =
  VAR n: INTEGER;
  BEGIN
    n := 0;
    WHILE l # NIL DO INC(n); l := l.tail; END;
    RETURN n;
  END Length;

VAR r: List; i: INTEGER;
BEGIN
  FOR i := 1 TO Iters DO
    r := Mas(Listn(X), Listn(Y), Listn(Z));
  END;
  PutInt(Length(r)); PutLn();
END Takl.
`, iters)
}

// DestroySource follows §6.3: "destroy builds a complete tree of
// specified branching factor and depth. It then repeatedly builds a new
// subtree at some fixed intermediate depth, and replaces a randomly
// chosen subtree of the same height with the new subtree." Collections
// can be forced at fixed points (collectEvery), matching the paper's
// "caused collections at approximately the same points" methodology.
func DestroySource(branch, depth, iters, replDepth, collectEvery int) string {
	return fmt.Sprintf(`
MODULE Destroy;
CONST BF = %d; Depth = %d; Iters = %d; ReplDepth = %d; CollectEvery = %d;
TYPE Node = REF RECORD val: INTEGER; kids: Kids; END;
TYPE Kids = REF ARRAY OF Node;
VAR seed: INTEGER;

PROCEDURE Rand(n: INTEGER): INTEGER =
  BEGIN
    seed := (seed * 1103515245 + 12345) MOD 2147483648;
    RETURN seed MOD n;
  END Rand;

VAR allocs: INTEGER;

PROCEDURE Build(depth: INTEGER): Node =
  VAR n: Node; i: INTEGER;
  BEGIN
    n := NEW(Node);
    n.val := depth;
    INC(allocs);
    IF CollectEvery > 0 THEN
      (* Force collections at fixed allocation counts, deep inside the
         recursion — the deep-stack collections §6.3 measures. *)
      IF allocs MOD CollectEvery = 0 THEN
        GcCollect();
      END;
    END;
    IF depth > 0 THEN
      n.kids := NEW(Kids, BF);
      FOR i := 0 TO BF - 1 DO
        n.kids[i] := Build(depth - 1);
      END;
    END;
    RETURN n;
  END Build;

PROCEDURE Count(n: Node): INTEGER =
  VAR s, i: INTEGER;
  BEGIN
    IF n = NIL THEN RETURN 0; END;
    s := 1;
    IF n.kids # NIL THEN
      FOR i := 0 TO BF - 1 DO
        s := s + Count(n.kids[i]);
      END;
    END;
    RETURN s;
  END Count;

PROCEDURE Descend(root: Node; levels: INTEGER): Node =
  VAR n: Node; i: INTEGER;
  BEGIN
    n := root;
    FOR i := 1 TO levels DO
      n := n.kids[Rand(BF)];
    END;
    RETURN n;
  END Descend;

VAR tree, parent, fresh: Node; it: INTEGER;
BEGIN
  seed := 12345;
  allocs := 0;
  tree := Build(Depth);
  FOR it := 1 TO Iters DO
    fresh := Build(Depth - ReplDepth);
    parent := Descend(tree, ReplDepth - 1);
    parent.kids[Rand(BF)] := fresh;
  END;
  PutInt(Count(tree)); PutLn();
END Destroy.
`, branch, depth, iters, replDepth, collectEvery)
}

// Sources returns the four paper benchmarks with default parameters.
func Sources() map[string]string {
	return map[string]string{
		"typereg":   TyperegSource,
		"FieldList": FieldListSource,
		"takl":      TaklSource,
		"destroy":   DestroySource(3, 6, 40, 2, 0),
	}
}

// Names returns the benchmarks in the paper's Table 1 order.
func Names() []string { return []string{"typereg", "FieldList", "takl", "destroy"} }

// ChurnBallastSource is the gc.concurrent benchmark workload: main
// pins a ballast-node list live for the whole run while three worker
// threads churn allocation, keeping every fifth cell. The ballast is
// what separates the two collection modes — a stop-the-world pause
// must re-mark all of it, a mostly-concurrent cycle marks it in bursts
// while the workers run and stops only for the short final pause. The
// output is the closed-form sum, identical in both modes.
func ChurnBallastSource(ballast, loops int) string {
	return fmt.Sprintf(`
MODULE Churn;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR ballast: List; done1, done2, done3, s1, s2, s3, t: INTEGER;

PROCEDURE Build(n: INTEGER): List =
  VAR keep, node: List; i: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      node := NEW(List);
      node.head := i;
      node.tail := keep;
      keep := node;
    END;
    RETURN keep;
  END Build;

PROCEDURE Sum(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END Sum;

PROCEDURE Churn(n: INTEGER): INTEGER =
  VAR keep, junk: List; i, s: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      junk := NEW(List);
      junk.head := i;
      IF i MOD 5 = 0 THEN
        junk.tail := keep;
        keep := junk;
      END;
    END;
    RETURN Sum(keep);
  END Churn;

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO %d DO s := Churn(n); END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN s1 := Loop(200); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Loop(170); done2 := 1; END W2;
PROCEDURE W3() = BEGIN s3 := Loop(140); done3 := 1; END W3;

BEGIN
  ballast := Build(%d);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(Sum(ballast) + s1 + s2 + s3); PutLn();
END Churn.
`, loops, ballast)
}

// DeepWalkSource recurses to depth with a live pointer pinned in every
// frame across the nested call, collects at the bottom of the stack,
// and repeats for rounds — so every collection's stack walk decodes
// depth+ frames of gc maps. With the decode cache off the walk pays
// the table-decode cost per frame per collection (the §6.3 worst
// case); with it on, each procedure's segment decodes once. The
// printed total is closed-form (DeepWalkWant).
func DeepWalkSource(depth, rounds int) string {
	return fmt.Sprintf(`
MODULE DeepWalk;
CONST Depth = %d; Rounds = %d;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR r, i: INTEGER;

PROCEDURE Leaf(): INTEGER =
  VAR p: List;
  BEGIN
    p := NEW(List);
    p.head := 1;
    p.tail := NIL;
    GcCollect();
    RETURN p.head;
  END Leaf;

PROCEDURE Walk(d: INTEGER): INTEGER =
  VAR p: List; t: INTEGER;
  BEGIN
    IF d = 0 THEN RETURN Leaf(); END;
    p := NEW(List);
    p.head := d;
    p.tail := NIL;
    t := Walk(d - 1);
    RETURN p.head + t;
  END Walk;

BEGIN
  r := 0;
  FOR i := 1 TO Rounds DO
    r := r + Walk(Depth);
  END;
  PutInt(r); PutLn();
END DeepWalk.
`, depth, rounds)
}

// DeepWalkWant is the closed-form output: rounds·(1 + Σ_{d=1..depth} d).
func DeepWalkWant(depth, rounds int) string {
	return fmt.Sprintf("%d\n", rounds*(1+depth*(depth+1)/2))
}
