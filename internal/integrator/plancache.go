package integrator

import (
	"container/list"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/sqlparser"
)

// The federated plan cache reuses the EXPENSIVE head of compilation — parse,
// decomposition, and the meta-wrapper round-trips to every candidate
// server's planner — across instances of the same statement. A hit re-runs
// only the cheap tail: the CURRENT calibration factors are applied to the
// cached raw estimates, the winner is re-picked, and the load-distribution
// route policy gets its say, with zero MW/wrapper/remote-planner traffic.
// This is the compile-time counterpart of the paper's §3.1 premise:
// calibration learned from past executions applies to future instances of
// the same query type, so the per-instance work left at compile time is only
// the calibration arithmetic.
//
// Entries are keyed by the exact statement text: literal values
// legitimately change remote estimates, plan choices and results, so a
// compilation is only ever reused for the text it was compiled from. An
// entry lives until what it was compiled from changes. Invalidation (the
// correctness half of the design):
//
//   - "version": a candidate server's table mutation counter moved since the
//     explain that produced the cached estimates (update bursts,
//     replication). Snapshots ride in through the wrapper candidate API.
//   - "mask":    a candidate server's MetaWrapper mask differs from the
//     snapshot taken before its candidates were collected — a masked server
//     contributed no candidates, an unmasked one is missing from the cached
//     candidate sets.
//   - "capacity": LRU eviction past PlanCacheCapacity statements.
//   - "clear":   explicit invalidation (ClearPlanCache, which a shard
//     pushdown toggle and a route policy change call), or an entry decomposed
//     under the other pushdown setting.
//
// Calibration-factor changes and QCC availability fencing need NO
// invalidation: factors are re-applied on every hit, and a fenced server's
// candidates calibrate to +Inf and drop out of the re-pick. A compilation in
// which an unmasked candidate server failed to explain is never inserted.
const (
	InvalidateVersion  = "version"
	InvalidateMask     = "mask"
	InvalidateCapacity = "capacity"
	InvalidateClear    = "clear"
)

// PlanCacheCapacity is the number of statements the cache keeps (LRU
// eviction).
const PlanCacheCapacity = 512

// PlanCacheStats is a snapshot of the federated plan cache's counters.
type PlanCacheStats struct {
	// Hits counts compiles served from a valid cached entry.
	Hits int64
	// Misses counts cold compiles: not-cached, invalidated on lookup, or
	// cached options unusable (every candidate excluded or fenced).
	Misses int64
	// Entries is the live statement count.
	Entries int
	// Invalidations counts removed entries by cause ("version", "mask",
	// "capacity", "clear").
	Invalidations map[string]int64
}

// cachedCompilation is the reusable compile artifact for one exact
// statement text.
type cachedCompilation struct {
	sql  string
	stmt *sqlparser.SelectStmt
	// opts is the shard handling the statement was decomposed under.
	opts   optimizer.DecomposeOpts
	decomp *optimizer.Decomposition
	frags  []optimizer.FragmentOptions
	// fragTables caches each fragment's referenced table names for version
	// validation.
	fragTables [][]string
	// servers are the candidate servers in first-seen order; masked is
	// MetaWrapper.MaskedSet as it was when collection began, read only for
	// them.
	servers []string
	masked  map[string]bool
	turn    Turn
}

// planCache is the federated plan cache. It is pure bookkeeping: validation
// against current mask/version state lives in II.compile, which owns the
// meta-wrapper access.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // exact text → element
	lru     *list.List               // most-recently-used first

	hits, misses  int64
	invalidations map[string]int64
}

func newPlanCache() *planCache {
	return &planCache{
		entries:       map[string]*list.Element{},
		lru:           list.New(),
		invalidations: map[string]int64{},
	}
}

// lookup returns the cached compilation for the exact statement text and
// bumps its recency. A nil return was already counted as a miss.
func (pc *planCache) lookup(sql string) *cachedCompilation {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[sql]
	if !ok {
		pc.misses++
		return nil
	}
	pc.lru.MoveToFront(el)
	return el.Value.(*cachedCompilation)
}

// recordHit counts a validated warm compile.
func (pc *planCache) recordHit() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.hits++
}

// recordMiss counts a cold fallback after an unusable (but still valid)
// cached entry — every candidate excluded or fenced.
func (pc *planCache) recordMiss() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.misses++
}

// invalidate removes the entry for sql and counts the lookup that found it
// as a miss.
func (pc *planCache) invalidate(sql, cause string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.misses++
	if el, ok := pc.entries[sql]; ok {
		pc.removeLocked(el, cause)
	}
}

func (pc *planCache) removeLocked(el *list.Element, cause string) {
	delete(pc.entries, el.Value.(*cachedCompilation).sql)
	pc.lru.Remove(el)
	pc.invalidations[cause]++
}

// insert stores a fresh compilation, replacing one for the same text and
// evicting the least recently used statements over capacity.
func (pc *planCache) insert(cc *cachedCompilation) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[cc.sql]; ok {
		el.Value = cc
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[cc.sql] = pc.lru.PushFront(cc)
	for pc.lru.Len() > PlanCacheCapacity {
		pc.removeLocked(pc.lru.Back(), InvalidateCapacity)
	}
}

// clear drops every entry, counting them under the given cause.
func (pc *planCache) clear(cause string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if n := int64(len(pc.entries)); n > 0 {
		pc.invalidations[cause] += n
	}
	pc.entries = map[string]*list.Element{}
	pc.lru.Init()
}

func (pc *planCache) snapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := PlanCacheStats{
		Hits:          pc.hits,
		Misses:        pc.misses,
		Entries:       len(pc.entries),
		Invalidations: make(map[string]int64, len(pc.invalidations)),
	}
	for cause, n := range pc.invalidations {
		s.Invalidations[cause] = n
	}
	return s
}
