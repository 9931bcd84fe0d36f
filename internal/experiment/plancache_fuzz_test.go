package experiment

import (
	"maps"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// cacheStatement is one statement of the plan-cache fuzz pool: the federation
// it runs on (0 the paper federation, 1 the sharded one) and the nicknames it
// reads.
type cacheStatement struct {
	fed    int
	sql    string
	tables []string
}

var cachePool = []cacheStatement{
	{0, "SELECT o.o_id, o.o_amount FROM orders AS o WHERE o.o_amount > 9000", []string{"orders"}},
	{0, "SELECT p.p_type, COUNT(*), MAX(p.p_weight) FROM parts AS p GROUP BY p.p_type", []string{"parts"}},
	{0, "SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 10 GROUP BY o.o_priority", []string{"orders", "lineitem"}},
	{0, "SELECT c.c_segment, SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount < 0.1 GROUP BY c.c_segment", []string{"customer", "orders"}},
	{1, "SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag", []string{"lineitem"}},
	{1, "SELECT COUNT(*), MIN(l_price), MAX(l_price) FROM lineitem WHERE l_qty < 20", []string{"lineitem"}},
}

var cacheNicknames = []string{"orders", "lineitem", "customer", "parts"}

// cacheModel is what the fuzz expects of one statement's plan-cache entry:
// whether one is live and the mask set it was compiled under.
type cacheModel struct {
	cached bool
	masked map[string]bool
}

// FuzzPlanCacheInvalidation runs a seeded sequence of operations on a fresh
// paper federation and a fresh two-shard federation (scale 200), one byte an
// operation: a query from a fixed pool (single-table, join and sharded
// aggregate statements), workload.WriteNickname on one nickname in both
// federations, a mask flip of one paper server that leaves at least one
// unmasked (a sharded federation's shard has one server, so none is masked
// there) or ClearPlanCache on both. Every answer must equal GroundTruth on an
// unmasked paper server, or the shards' rows put together for the sharded
// federation. Every query is a plan-cache hit exactly when its statement's
// entry is live: compiled before, with no write to a table it reads, no clear
// and the same mask set since. In particular a query after a write to a table
// it reads is a miss.
func FuzzPlanCacheInvalidation(f *testing.F) {
	const (
		opQuery = iota
		opWrite
		opMask
		opClear
		opKinds
	)
	op := func(kind, arg int) byte { return byte(arg*opKinds + kind) }
	f.Add(int64(7), []byte{op(opQuery, 2), op(opQuery, 2), op(opWrite, 1), op(opQuery, 2), op(opQuery, 4), op(opWrite, 1), op(opQuery, 4)})
	f.Add(int64(11), []byte{op(opQuery, 0), op(opMask, 0), op(opQuery, 0), op(opMask, 0), op(opQuery, 0), op(opQuery, 0)})
	f.Add(int64(13), []byte{op(opQuery, 3), op(opQuery, 5), op(opClear, 0), op(opQuery, 3), op(opQuery, 5), op(opWrite, 0), op(opQuery, 3)})
	f.Add(int64(17), []byte{op(opMask, 1), op(opMask, 2), op(opMask, 0), op(opQuery, 1), op(opWrite, 3), op(opQuery, 1), op(opMask, 1), op(opQuery, 1)})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		paper, err := scenario.BuildThreeServer(scenario.Options{Scale: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 2, Scale: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		feds := []*scenario.Scenario{paper, sharded}
		servers := []string{"S1", "S2", "S3"}
		model := make([]cacheModel, len(cachePool))
		for i, b := range ops {
			kind, arg := int(b)%opKinds, int(b)/opKinds
			switch kind {
			case opQuery:
				s := cachePool[arg%len(cachePool)]
				m := &model[arg%len(cachePool)]
				sc := feds[s.fed]
				masked := sc.MW.MaskedSet()
				wantHit := m.cached && maps.Equal(m.masked, masked)
				before := sc.II.PlanCacheStats()
				res, err := sc.II.Query(s.sql)
				if err != nil {
					t.Fatalf("op %d: %s: %v", i, s.sql, err)
				}
				after := sc.II.PlanCacheStats()
				if hit := after.Hits > before.Hits; hit != wantHit || after.Hits+after.Misses != before.Hits+before.Misses+1 {
					t.Fatalf("op %d: %s: hits %d → %d, misses %d → %d; want a hit: %v", i, s.sql, before.Hits, after.Hits, before.Misses, after.Misses, wantHit)
				}
				*m = cacheModel{cached: true, masked: masked}
				want, err := cacheGroundTruth(sc, s.fed, masked, s.sql)
				if err != nil {
					t.Fatalf("op %d: %s: ground truth: %v", i, s.sql, err)
				}
				if diff := RelationsEquivalent(res.Rel, want, false); diff != "" {
					t.Fatalf("op %d: %s: %s", i, s.sql, diff)
				}
			case opWrite:
				nick := cacheNicknames[arg%len(cacheNicknames)]
				for _, sc := range feds {
					if err := workload.WriteNickname(sc, nick, seed+int64(i)); err != nil {
						t.Fatalf("op %d: writing %s: %v", i, nick, err)
					}
				}
				for j, s := range cachePool {
					for _, tab := range s.tables {
						if tab == nick {
							model[j].cached = false
						}
					}
				}
			case opMask:
				id := servers[arg%len(servers)]
				masked := paper.MW.MaskedSet()
				if !masked[id] && len(masked) == len(servers)-1 {
					continue // the last unmasked server stays a candidate
				}
				paper.MW.Mask(id, !masked[id])
			case opClear:
				for _, sc := range feds {
					sc.II.ClearPlanCache()
				}
				for j := range model {
					model[j].cached = false
				}
			}
		}
	})
}

// cacheGroundTruth is the single-site answer to sql: GroundTruth on the first
// unmasked server of the paper federation (every server holds every table),
// and on the sharded federation the reference plan over the shards' current
// rows put together, beside the replicated tables of S1.
func cacheGroundTruth(sc *scenario.Scenario, fed int, masked map[string]bool, sql string) (*sqltypes.Relation, error) {
	if fed == 0 {
		for _, id := range []string{"S1", "S2", "S3"} {
			if !masked[id] {
				return GroundTruth(sc, id, sql)
			}
		}
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	var lookupErr error
	rel, err := groundTruth(stmt, func(name string) *storage.Table {
		nick, err := sc.Catalog.Lookup(name)
		if err != nil || !nick.Sharded() {
			return sc.Servers["S1"].Table(name)
		}
		whole := storage.NewTable(name, nick.Schema)
		for _, sh := range nick.Shards {
			p := sh.Placements[0]
			v := sc.Servers[p.ServerID].Table(p.RemoteTable).View()
			if err := whole.Append(v.Rows()...); err != nil {
				lookupErr = err
			}
			v.Close()
		}
		return whole
	})
	if lookupErr != nil {
		return nil, lookupErr
	}
	return rel, err
}
