package integrator

import (
	"fmt"
	"testing"

	"repro/internal/sqlparser"
)

func testCC(sql string) *cachedCompilation {
	return &cachedCompilation{sql: sql, stmt: sqlparser.MustParse(sql)}
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
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1 entries=1", s)
	}
	// A parameter variant is a statement of its own: invalidating one text
	// leaves the other cached.
	const variant = "SELECT x FROM t WHERE x > 999"
	pc.insert(testCC(variant))
	pc.invalidate(q, InvalidateVersion)
	if pc.lookup(q) != nil || pc.lookup(variant) == nil {
		t.Fatal("invalidation did not remove exactly the invalidated text")
	}
	if s := pc.snapshot(); s.Entries != 1 || s.Invalidations[InvalidateVersion] != 1 {
		t.Fatalf("stats %+v, want entries=1 and one version invalidation", s)
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
