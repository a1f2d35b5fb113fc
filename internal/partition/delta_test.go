package partition

import (
	"sync"
	"testing"

	"lppart/internal/explore"
)

// evalFields compares every observable field of two SetEvals exactly
// (float equality included: the delta path must be byte-identical, not
// approximately equal).
func evalFields(t *testing.T, tag string, full, delta *SetEval) {
	t.Helper()
	if (full.Err == nil) != (delta.Err == nil) {
		t.Fatalf("%s: Err mismatch: %v vs %v", tag, full.Err, delta.Err)
	}
	if full.Reason != delta.Reason {
		t.Errorf("%s: Reason %q vs %q", tag, full.Reason, delta.Reason)
	}
	if full.Binding != delta.Binding {
		t.Errorf("%s: Binding pointers differ (memo should be shared)", tag)
	}
	if full.UASIC != delta.UASIC || full.UMuP != delta.UMuP {
		t.Errorf("%s: U mismatch: (%v,%v) vs (%v,%v)", tag, full.UASIC, full.UMuP, delta.UASIC, delta.UMuP)
	}
	if full.EASIC != delta.EASIC || full.EMuPSaved != delta.EMuPSaved {
		t.Errorf("%s: energy mismatch: (%v,%v) vs (%v,%v)", tag, full.EASIC, full.EMuPSaved, delta.EASIC, delta.EMuPSaved)
	}
	if full.EstCycles != delta.EstCycles {
		t.Errorf("%s: EstCycles %d vs %d", tag, full.EstCycles, delta.EstCycles)
	}
	if full.GEQ != delta.GEQ {
		t.Errorf("%s: GEQ %d vs %d", tag, full.GEQ, delta.GEQ)
	}
	if full.OF != delta.OF {
		t.Errorf("%s: OF %v vs %v", tag, full.OF, delta.OF)
	}
	if full.Eligible != delta.Eligible {
		t.Errorf("%s: Eligible %v vs %v", tag, full.Eligible, delta.Eligible)
	}
}

// TestDeltaEvictionForcesFullReprice: when the schedule/binding memo
// evicts a pair, the delta evaluator's cached terms for that pair refer
// to the retired bindResult. Re-evaluating the pair must recompute the
// binding AND the terms from scratch (a clean full re-price), and the
// result must still match a full evaluation — never a stale splice.
func TestDeltaEvictionForcesFullReprice(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A capacity-1 memo evicts pair A as soon as pair B is bound.
	e.memo = explore.NewMemo[PairKey, *bindResult](1)
	de := NewDeltaEvaluator(e)
	_, pool := e.Candidates(base)
	if len(pool) < 2 {
		t.Fatalf("need two candidates, have %d", len(pool))
	}
	a, b := pool[0], pool[1]

	evalA1, err := de.Eval(base, a, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if s := de.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first eval: stats = %+v, want 1 miss", s)
	}
	// Same pair again, no eviction in between: pure price-tail splice.
	if _, err := de.Eval(base, a, 0, false, false); err != nil {
		t.Fatal(err)
	}
	if s := de.Stats(); s.Hits != 1 {
		t.Fatalf("re-eval without eviction: stats = %+v, want 1 hit", s)
	}

	// Bind pair B: capacity 1 evicts pair A from the memo.
	if _, err := de.Eval(base, b, 0, false, false); err != nil {
		t.Fatal(err)
	}
	if ms := e.memo.Stats(); ms.Evictions == 0 {
		t.Fatalf("expected an eviction, memo stats = %+v", ms)
	}

	// Pair A again: the memo recomputes the binding, so the cached terms
	// must be discarded (miss, not hit) and the result must equal both
	// the pre-eviction evaluation and a fresh full evaluation.
	before := de.Stats()
	evalA2, err := de.Eval(base, a, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	after := de.Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Errorf("post-eviction eval must be a clean re-price: stats %+v -> %+v", before, after)
	}
	full, err := e.Eval(base, a, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if evalA2.OF != evalA1.OF || evalA2.OF != full.OF ||
		evalA2.EstCycles != evalA1.EstCycles || evalA2.GEQ != evalA1.GEQ {
		t.Errorf("post-eviction re-price diverged: before=%v after=%v full=%v",
			evalA1.OF, evalA2.OF, full.OF)
	}
}

// TestDeltaEvalIntoZeroAlloc: the warm delta path (binding memoized,
// terms cached) must not heap allocate.
func TestDeltaEvalIntoZeroAlloc(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	de := NewDeltaEvaluator(e)
	_, pool := e.Candidates(base)
	if len(pool) == 0 {
		t.Fatal("no candidates")
	}
	c := pool[0]
	var out SetEval
	if err := de.EvalInto(base, c, 0, false, false, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := de.EvalInto(base, c, 0, false, false, &out); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm EvalInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPricedSpliceMatchesPathOrder: Add/Remove splicing must reproduce
// the exact floats of accumulating the same picks in path order from
// scratch, including after backtracking (Remove restores the parent
// snapshot bit-for-bit).
func TestPricedSpliceMatchesPathOrder(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, pool := e.Candidates(base)
	if len(pool) < 2 {
		t.Fatalf("need two candidates, have %d", len(pool))
	}
	evs := make([]*SetEval, len(pool))
	for j, c := range pool {
		ev, err := e.Eval(base, c, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		evs[j] = ev
	}
	// Reference: accumulate picks 0 then 1 functionally.
	ref := NewPriced(base)
	ref.Add(pool[0], evs[0])
	ref.Add(pool[1], evs[1])
	wantE, wantC, wantG := ref.Point()

	// Spliced: descend 0→1, back out twice, then rebuild the same path.
	pr := NewPriced(base)
	pr.Add(pool[0], evs[0])
	pr.Add(pool[1], evs[1])
	pr.Remove()
	pr.Remove()
	if pr.Depth() != 0 {
		t.Fatalf("depth after full unwind = %d", pr.Depth())
	}
	e0, c0, g0 := pr.Point()
	b0 := NewPriced(base)
	be, bc, bg := b0.Point()
	if e0 != be || c0 != bc || g0 != bg {
		t.Errorf("unwound point (%v,%d,%d) != baseline point (%v,%d,%d)", e0, c0, g0, be, bc, bg)
	}
	pr.Add(pool[0], evs[0])
	pr.Add(pool[1], evs[1])
	gotE, gotC, gotG := pr.Point()
	if gotE != wantE || gotC != wantC || gotG != wantG {
		t.Errorf("re-spliced point (%v,%d,%d) != path-order point (%v,%d,%d)",
			gotE, gotC, gotG, wantE, wantC, wantG)
	}
}

// TestCandidatesWarmAllocs: once the Evaluator's region table is built,
// a Candidates call allocates only what it returns — one slab of
// Candidate structs, one of their cumulative µP statistics, and the all
// and pool slices — however many regions the program has.
func TestCandidatesWarmAllocs(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, pool := e.Candidates(base); len(pool) == 0 {
		t.Fatal("no candidates")
	}
	allocs := testing.AllocsPerRun(100, func() { e.Candidates(base) })
	if allocs > 4 {
		t.Errorf("warm Candidates allocates %.1f objects per call, want at most 4", allocs)
	}
}

// TestCandidatesConcurrentFirstUse: geometry workers make the first
// Candidates calls of an Evaluator concurrently. The region table is
// built under sync.Once, which also fills every region's lazy Ops cache
// before another goroutine reads it; under -race this test fails if
// either is built outside the Once. Every caller must get the same
// ranking.
func TestCandidatesConcurrentFirstUse(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	e, err := NewEvaluator(ir, prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	pools := make([][]*Candidate, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, pools[i] = e.Candidates(base)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if len(pools[i]) != len(pools[0]) {
			t.Fatalf("caller %d: pool of %d, caller 0: %d", i, len(pools[i]), len(pools[0]))
		}
		for j := range pools[i] {
			if a, b := pools[i][j], pools[0][j]; a.Region != b.Region || a.Score != b.Score || a.Traffic != b.Traffic {
				t.Errorf("caller %d: pool[%d] = %s, caller 0: %s", i, j, a.Region.Label, b.Region.Label)
			}
		}
	}
}
