package gcserve

import "fmt"

// SessionWorkloadSource is the server-shaped tenant of the serve.*
// benchmark workloads: a request/response loop over a persistent
// session cache. Each of the requests iterations allocates perReq
// short-lived cells (dead by the next request — minor-collection
// food), and every cacheEvery-th request promotes one entry into the
// session cache that survives to the epilogue (old-space residents the
// major collections must copy). The epilogue folds the surviving cache
// into the output, so a lost or mis-fixed cache entry — e.g. a
// promoted pointer the remembered set missed — changes the printed
// sums, not just the timing.
//
// The expected output is closed-form (SessionWorkloadWant), which is
// what lets RunLoad diff thousands of concurrently scheduled tenants
// against one serial reference bit-exactly.
func SessionWorkloadSource(requests, cacheEvery, perReq int) string {
	return fmt.Sprintf(`
MODULE Session;
TYPE
  List = REF RECORD head: INTEGER; tail: List; END;
VAR
  cache: List;
  i, s, r: INTEGER;

PROCEDURE Handle(n: INTEGER): INTEGER =
  VAR tmp: List; k, t: INTEGER;
  BEGIN
    t := 0;
    FOR k := 1 TO %d DO
      tmp := NEW(List);
      tmp.head := n + k;
      tmp.tail := NIL;
      t := t + tmp.head;
    END;
    RETURN t;
  END Handle;

BEGIN
  cache := NIL;
  s := 0;
  FOR i := 1 TO %d DO
    s := s + Handle(i);
    IF i MOD %d = 0 THEN
      WITH nw = NEW(List) DO
        nw.head := i;
        nw.tail := cache;
        cache := nw;
      END;
    END;
  END;
  r := 0;
  WHILE cache # NIL DO
    r := r + cache.head;
    cache := cache.tail;
  END;
  PutInt(s); PutChar(' '); PutInt(r); PutLn();
END Session.
`, perReq, requests, cacheEvery)
}

// SessionWorkloadWant is the closed-form output of
// SessionWorkloadSource(requests, cacheEvery, perReq):
//
//	s = Σ_{n=1..R} Σ_{k=1..P} (n+k) = P·R(R+1)/2 + R·P(P+1)/2
//	r = Σ of multiples of E up to R = E·m(m+1)/2, m = R div E
func SessionWorkloadWant(requests, cacheEvery, perReq int) string {
	r, e, p := requests, cacheEvery, perReq
	s := p*r*(r+1)/2 + r*p*(p+1)/2
	m := r / e
	cached := e * m * (m + 1) / 2
	return fmt.Sprintf("%d %d\n", s, cached)
}
