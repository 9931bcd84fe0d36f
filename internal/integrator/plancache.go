package integrator

import (
	"container/list"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
)

// The federated plan cache reuses the EXPENSIVE head of compilation — parse,
// decomposition, and the meta-wrapper round-trips to every candidate
// server's planner — across queries of the same type. A hit re-runs only the
// cheap tail: the CURRENT calibration factors are applied to the cached raw
// estimates, the winner is re-picked, and the load-distribution route policy
// gets its say, with zero MW/wrapper/remote-planner traffic. This is the
// compile-time counterpart of the paper's §3.1 premise: calibration learned
// from past executions applies to future instances of the same query type,
// so the per-instance work left at compile time is only the calibration
// arithmetic.
//
// Entries are grouped under the statement's CANONICAL form
// (sqlparser.CanonicalizeSQL) — the same identity QCC keeps calibration
// factors under — with one variant per exact statement text. The canonical
// key is what eviction and invalidation operate on: parameter variants share
// tables, candidate servers and calibration state, so whatever invalidates
// one variant invalidates its siblings. The exact text keys the variant
// because literal values legitimately change remote estimates, plan choices
// and results; reusing another variant's parsed statement would return the
// wrong rows.
//
// Invalidation (the correctness half of the design):
//
//   - "version": a candidate server's table mutation counter moved since the
//     explain that produced the cached estimates (update bursts,
//     replication). Snapshots ride in through the wrapper candidate API.
//   - "mask":    a relevant server's MetaWrapper mask flipped in either
//     direction — a masked server contributed no candidates, an unmasked one
//     is missing from the cached candidate sets.
//   - "stale":   the entry outlived the staleness bound (by default the age
//     at which the router re-derives its rotation sets).
//   - "capacity": LRU/variant-bound eviction.
//   - "clear":   explicit invalidation (Clear).
//
// Calibration-factor changes and QCC availability fencing need NO
// invalidation: factors are re-applied on every hit, and a fenced server's
// candidates calibrate to +Inf and drop out of the re-pick.
const (
	InvalidateVersion  = "version"
	InvalidateMask     = "mask"
	InvalidateStale    = "stale"
	InvalidateCapacity = "capacity"
	InvalidateClear    = "clear"
)

// The cache's bounds. PlanCacheCapacity canonical statement entries are kept
// (LRU eviction), planCacheVariants parameter variants per entry (FIFO within
// the entry), and an entry re-compiles from scratch once it is older than
// DefaultPlanCacheMaxAge simulated ms (II.SetPlanCacheMaxAge changes that).
// The router ages and caps its rotation sets by the same age and capacity, so
// a cached compilation never outlives the rotation epoch its routing was
// derived under.
const (
	PlanCacheCapacity      = 512
	planCacheVariants      = 8
	DefaultPlanCacheMaxAge = simclock.Time(2000)
)

// PlanCacheStats is a snapshot of the federated plan cache's counters.
type PlanCacheStats struct {
	// Hits counts compiles served from a valid cached entry.
	Hits int64
	// Misses counts cold compiles: not-cached, invalidated on lookup, or
	// cached options unusable (every candidate excluded or fenced).
	Misses int64
	// Entries is the live canonical-entry count; Variants the total exact
	// statement texts cached across them.
	Entries  int
	Variants int
	// Invalidations counts removed entries by cause ("version", "mask",
	// "stale", "capacity", "clear").
	Invalidations map[string]int64
}

// cachedCompilation is the reusable compile artifact for one exact
// statement text.
type cachedCompilation struct {
	sql    string
	stmt   *sqlparser.SelectStmt
	decomp *optimizer.Decomposition
	frags  []optimizer.FragmentOptions
	// fragTables caches each fragment's referenced table names for version
	// validation.
	fragTables [][]string
	// maskSnap records the mask state of every relevant server at insert
	// time; servers is its sorted-ish key list (insertion order).
	maskSnap map[string]bool
	servers  []string
	// insertedAt drives the staleness bound.
	insertedAt simclock.Time
}

// cacheEntry groups the variants of one canonical statement form.
type cacheEntry struct {
	canonical string
	variants  map[string]*cachedCompilation
	// order is the variant insertion order (FIFO bound).
	order []string
}

// planCache is the federated plan cache. It is pure bookkeeping: validation
// against current mask/version state lives in II.compile, which owns the
// meta-wrapper access.
type planCache struct {
	mu      sync.Mutex
	maxAge  simclock.Time
	enabled bool

	entries map[string]*list.Element // canonical → element
	lru     *list.List               // most-recently-used first
	// bySQL indexes exact statement text straight to the canonical entry, so
	// a warm lookup needs no lexing at all.
	bySQL map[string]*list.Element

	hits, misses  int64
	invalidations map[string]int64
}

func newPlanCache() *planCache {
	return &planCache{
		maxAge:        DefaultPlanCacheMaxAge,
		enabled:       true,
		entries:       map[string]*list.Element{},
		lru:           list.New(),
		bySQL:         map[string]*list.Element{},
		invalidations: map[string]int64{},
	}
}

// lookup returns the cached compilation for the exact statement text and
// bumps the entry's recency. A nil return was already counted as a miss
// (unless the cache is disabled, which counts nothing).
func (pc *planCache) lookup(sql string) *cachedCompilation {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !pc.enabled {
		return nil
	}
	el, ok := pc.bySQL[sql]
	if !ok {
		pc.misses++
		return nil
	}
	pc.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).variants[sql]
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

// invalidate removes the canonical entry containing sql (all its variants:
// parameter siblings share the state that went stale) and counts the lookup
// that found it as a miss.
func (pc *planCache) invalidate(sql, cause string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.misses++
	el, ok := pc.bySQL[sql]
	if !ok {
		return
	}
	pc.removeLocked(el, cause)
}

func (pc *planCache) removeLocked(el *list.Element, cause string) {
	e := el.Value.(*cacheEntry)
	for variant := range e.variants {
		delete(pc.bySQL, variant)
	}
	delete(pc.entries, e.canonical)
	pc.lru.Remove(el)
	pc.invalidations[cause]++
}

// insert stores a fresh compilation under its canonical form, evicting LRU
// entries over capacity and the oldest parameter variant over the per-entry
// bound.
func (pc *planCache) insert(cc *cachedCompilation) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !pc.enabled {
		return
	}
	canonical := sqlparser.CanonicalizeSQL(cc.sql)
	el, ok := pc.entries[canonical]
	if !ok {
		e := &cacheEntry{canonical: canonical, variants: map[string]*cachedCompilation{}}
		el = pc.lru.PushFront(e)
		pc.entries[canonical] = el
		for pc.lru.Len() > PlanCacheCapacity {
			pc.removeLocked(pc.lru.Back(), InvalidateCapacity)
		}
	} else {
		pc.lru.MoveToFront(el)
	}
	e := el.Value.(*cacheEntry)
	if _, exists := e.variants[cc.sql]; !exists {
		e.order = append(e.order, cc.sql)
		if len(e.order) > planCacheVariants {
			evict := e.order[0]
			e.order = e.order[1:]
			delete(e.variants, evict)
			delete(pc.bySQL, evict)
			pc.invalidations[InvalidateCapacity]++
		}
	}
	e.variants[cc.sql] = cc
	pc.bySQL[cc.sql] = el
}

// clear drops every entry, counting them under the given cause.
func (pc *planCache) clear(cause string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := int64(len(pc.entries))
	pc.entries = map[string]*list.Element{}
	pc.bySQL = map[string]*list.Element{}
	pc.lru.Init()
	if n > 0 {
		pc.invalidations[cause] += n
	}
}

func (pc *planCache) setEnabled(enabled bool) {
	pc.mu.Lock()
	wasEnabled := pc.enabled
	pc.enabled = enabled
	pc.mu.Unlock()
	if wasEnabled && !enabled {
		pc.clear(InvalidateClear)
	}
}

func (pc *planCache) setMaxAge(maxAge simclock.Time) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if maxAge > 0 {
		pc.maxAge = maxAge
	}
}

func (pc *planCache) staleness() simclock.Time {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.maxAge
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
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		s.Variants += len(el.Value.(*cacheEntry).variants)
	}
	for cause, n := range pc.invalidations {
		s.Invalidations[cause] = n
	}
	return s
}
