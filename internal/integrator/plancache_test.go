package integrator

import (
	"fmt"
	"testing"

	"repro/internal/sqlparser"
)

func testCC(sql string) *cachedCompilation {
	return &cachedCompilation{sql: sql, stmt: sqlparser.MustParse(sql), maskSnap: map[string]bool{}}
}

func TestPlanCacheLookupAndStats(t *testing.T) {
	pc := newPlanCache()
	const q = "SELECT x FROM t WHERE x > 1"
	if got := pc.lookup(q); got != nil {
		t.Fatalf("lookup on empty cache returned %v", got)
	}
	pc.insert(testCC(q))
	cc := pc.lookup(q)
	if cc == nil || cc.sql != q {
		t.Fatalf("lookup after insert: %v", cc)
	}
	pc.recordHit()
	s := pc.snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Variants != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1 entries=1 variants=1", s)
	}
}

func TestPlanCacheParameterVariantsShareEntry(t *testing.T) {
	pc := newPlanCache()
	a := "SELECT x FROM t WHERE x > 1"
	b := "SELECT x FROM t WHERE x > 999"
	pc.insert(testCC(a))
	pc.insert(testCC(b))
	s := pc.snapshot()
	if s.Entries != 1 || s.Variants != 2 {
		t.Fatalf("variants of one query type must share a canonical entry: %+v", s)
	}
	// Each exact text resolves to its own compilation.
	if cc := pc.lookup(a); cc == nil || cc.sql != a {
		t.Fatalf("variant a: %v", cc)
	}
	if cc := pc.lookup(b); cc == nil || cc.sql != b {
		t.Fatalf("variant b: %v", cc)
	}
	// Invalidating through one variant drops the sibling too.
	pc.invalidate(a, InvalidateVersion)
	if cc := pc.lookup(b); cc != nil {
		t.Fatalf("sibling variant survived invalidation: %v", cc)
	}
	s = pc.snapshot()
	if s.Invalidations[InvalidateVersion] != 1 {
		t.Fatalf("invalidation cause not counted: %+v", s.Invalidations)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := newPlanCache()
	q := func(i int) string { return fmt.Sprintf("SELECT x FROM t%d WHERE x > 1", i) }
	for i := 1; i <= PlanCacheCapacity; i++ {
		pc.insert(testCC(q(i)))
	}
	// Touch q1 so q2 is the LRU victim when one more statement arrives.
	if pc.lookup(q(1)) == nil {
		t.Fatal("q1 should be cached")
	}
	last := PlanCacheCapacity + 1
	pc.insert(testCC(q(last)))
	if pc.lookup(q(2)) != nil {
		t.Fatal("LRU victim q2 survived")
	}
	if pc.lookup(q(1)) == nil || pc.lookup(q(last)) == nil {
		t.Fatal("recently used entries evicted")
	}
	if s := pc.snapshot(); s.Invalidations[InvalidateCapacity] != 1 {
		t.Fatalf("capacity eviction not counted: %+v", s.Invalidations)
	}
}

func TestPlanCacheVariantBound(t *testing.T) {
	pc := newPlanCache()
	q := func(i int) string { return fmt.Sprintf("SELECT x FROM t WHERE x > %d", i) }
	for i := 0; i <= planCacheVariants; i++ {
		pc.insert(testCC(q(i)))
	}
	if pc.lookup(q(0)) != nil {
		t.Fatal("oldest variant survived the per-entry bound")
	}
	for i := 1; i <= planCacheVariants; i++ {
		if pc.lookup(q(i)) == nil {
			t.Fatalf("retained variant %d missing", i)
		}
	}
	if s := pc.snapshot(); s.Entries != 1 || s.Variants != planCacheVariants {
		t.Fatalf("stats %+v, want entries=1 variants=%d", s, planCacheVariants)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	pc := newPlanCache()
	pc.setEnabled(false)
	const q = "SELECT x FROM t WHERE x > 1"
	pc.insert(testCC(q))
	if pc.lookup(q) != nil {
		t.Fatal("disabled cache served an entry")
	}
	if s := pc.snapshot(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", s)
	}
	// Re-enabling starts clean and works.
	pc.setEnabled(true)
	pc.insert(testCC(q))
	if pc.lookup(q) == nil {
		t.Fatal("re-enabled cache did not serve")
	}
	// Disabling clears.
	pc.setEnabled(false)
	if s := pc.snapshot(); s.Entries != 0 {
		t.Fatalf("disable did not clear: %+v", s)
	}
}
