package optimizer_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/experiment"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// FuzzShardPruning checks shard pruning against the rows each shard holds:
// for any WHERE predicate over lineitem, under hash and range sharding with
// NULL shard keys, no shard holding a row that satisfies the predicate may be
// pruned. The corpus is seeded with experiment.ShardPredicates (comparisons,
// IN, BETWEEN, IS NULL and AND over l_orderkey and l_qty); run it with
//
//	go test -run - -fuzz FuzzShardPruning -fuzztime 60s ./internal/optimizer/
func FuzzShardPruning(f *testing.F) {
	for _, pred := range experiment.ShardPredicates() {
		f.Add(pred, false)
		f.Add(pred, true)
	}
	scenarios := map[bool]*scenario.Scenario{}
	for _, ranged := range []bool{false, true} {
		method := catalog.ShardHash
		if ranged {
			method = catalog.ShardRange
		}
		sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: 200, Method: method, NullKeyFrac: 0.15})
		if err != nil {
			f.Fatal(err)
		}
		scenarios[ranged] = sc
	}
	f.Fuzz(func(t *testing.T, pred string, ranged bool) {
		stmt, err := sqlparser.Parse("SELECT l_id FROM lineitem WHERE " + pred)
		if err != nil || stmt.Where == nil {
			return
		}
		sc := scenarios[ranged]
		d, err := optimizer.DecomposeWith(stmt, sc.Catalog, optimizer.DecomposeOpts{})
		if err != nil {
			return
		}
		if d.Sharded == nil {
			t.Fatalf("WHERE %s: no sharded plan", pred)
		}
		kept := map[int]bool{}
		for _, i := range d.Sharded.Executed {
			kept[i] = true
		}
		nick, err := sc.Catalog.Lookup("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range nick.Shards {
			if kept[i] {
				continue
			}
			if row, ok := satisfyingRow(t, sc, sh, stmt.Where); ok {
				t.Fatalf("WHERE %s (range=%v): shard %d pruned, but it holds %v", pred, ranged, i, row)
			}
		}
	})
}

// satisfyingRow returns a row of the shard that satisfies where. A predicate
// the evaluator rejects (a type error, say) is one no shard can satisfy.
func satisfyingRow(t *testing.T, sc *scenario.Scenario, sh catalog.Shard, where sqlparser.Expr) (sqltypes.Row, bool) {
	t.Helper()
	p := sh.Placements[0]
	tab := sc.Servers[p.ServerID].Table(p.RemoteTable)
	v := tab.View()
	defer v.Close()
	for _, row := range v.Rows() {
		if ok, err := sqlparser.EvalBool(where, row, tab.Schema()); err == nil && ok {
			return row, true
		}
	}
	return nil, false
}
