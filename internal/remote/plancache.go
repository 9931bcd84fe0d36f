package remote

import (
	"container/list"
	"sync"

	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// planCache is the server's statement cache (DB2's package cache): plan
// enumeration for a statement is reused across compilations as long as every
// referenced table is unchanged. Entries are keyed by the EXACT statement
// text: parameter values legitimately change selectivities, plan choices and
// estimates, and estimates are what the federation routes on.
//
// Cached entries hold the enumerated plans; estimates inside them were
// computed against the table versions recorded at insert time, so any
// mutation (update bursts, replication) invalidates the entry.
//
// Eviction is LRU: a lookup hit refreshes the entry's recency, so a hot
// statement survives a sweep of one-off statements that would have rolled a
// FIFO cache over.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	// lru orders entries most-recently-used first.
	lru       *list.List
	hits      int64
	misses    int64
	evictions int64
}

// statementCacheCapacity bounds the statement cache.
const statementCacheCapacity = 256

type planCacheEntry struct {
	key   string
	plans []*Plan
	// versions snapshots each referenced table's mutation counter.
	versions map[string]int64
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*list.Element{}, lru: list.New()}
}

// lookup returns cached plans when fresh. The caller must hold no server
// locks.
func (pc *planCache) lookup(key string, currentVersions map[string]int64) []*Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil
	}
	e := el.Value.(*planCacheEntry)
	for table, v := range e.versions {
		if currentVersions[table] != v {
			pc.lru.Remove(el)
			delete(pc.entries, key)
			pc.misses++
			return nil
		}
	}
	pc.lru.MoveToFront(el)
	pc.hits++
	return e.plans
}

func (pc *planCache) insert(key string, plans []*Plan, versions map[string]int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, exists := pc.entries[key]; exists {
		e := el.Value.(*planCacheEntry)
		e.plans, e.versions = plans, versions
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.lru.PushFront(&planCacheEntry{key: key, plans: plans, versions: versions})
	for pc.lru.Len() > statementCacheCapacity {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planCacheEntry).key)
		pc.evictions++
	}
}

func (pc *planCache) clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = map[string]*list.Element{}
	pc.lru.Init()
}

// StatementCacheStats is a snapshot of a server's statement-cache counters.
type StatementCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// StatementCacheStats reports the full statement-cache counter snapshot,
// including LRU evictions and the live entry count.
func (s *Server) StatementCacheStats() StatementCacheStats {
	pc := s.planCache
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return StatementCacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Entries:   len(pc.entries),
	}
}

// ResetPlanCache drops every cached statement (counters are retained) —
// benchmark and test hook for cold-compile measurements.
func (s *Server) ResetPlanCache() { s.planCache.clear() }

// cacheKeyAndVersions derives the cache key (the statement text) and the
// referenced tables' current versions; ok is false when a table is missing.
func (s *Server) cacheKeyAndVersions(stmt *sqlparser.SelectStmt) (string, map[string]int64, bool) {
	key := stmt.String()
	versions := map[string]int64{}
	for _, tr := range stmt.Tables() {
		tab := s.Table(tr.Name)
		if tab == nil {
			return key, nil, false
		}
		versions[tr.Name] = tableVersion(tab)
	}
	return key, versions, true
}

func tableVersion(tab *storage.Table) int64 {
	v := tab.View()
	defer v.Close()
	return v.Version()
}

// TableVersions snapshots the current mutation counters of the named tables;
// ok is false when the server does not host one of them. The federated plan
// cache compares these snapshots against the versions recorded when a
// candidate plan was explained to decide whether the cached compilation is
// still valid.
func (s *Server) TableVersions(tables []string) (map[string]int64, bool) {
	out := make(map[string]int64, len(tables))
	for _, name := range tables {
		tab := s.Table(name)
		if tab == nil {
			return nil, false
		}
		out[name] = tableVersion(tab)
	}
	return out, true
}
