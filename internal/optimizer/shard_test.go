package optimizer_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

func shardedScenario(t *testing.T, shards int, method catalog.ShardMethod) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{
		Shards: shards,
		Scale:  200,
		Method: method,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func executedShards(t *testing.T, sc *scenario.Scenario, sql string) (*optimizer.Decomposition, []int) {
	t.Helper()
	d, err := optimizer.Decompose(sqlparser.MustParse(sql), sc.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sharded == nil {
		t.Fatalf("expected a sharded plan for %q", sql)
	}
	return d, d.Sharded.Executed
}

func TestDecomposeShardedScatter(t *testing.T) {
	sc := shardedScenario(t, 4, catalog.ShardHash)
	d, exec := executedShards(t, sc, "SELECT l_id FROM lineitem")
	if !reflect.DeepEqual(exec, []int{0, 1, 2, 3}) {
		t.Fatalf("executed: %v", exec)
	}
	if len(d.Fragments) != 4 || d.SingleFragment {
		t.Fatalf("expected 4 scatter fragments: %+v", d)
	}
	for i, f := range d.Fragments {
		if f.ID != fmt.Sprintf("QF1.s%d", i) {
			t.Fatalf("fragment %d id %s", i, f.ID)
		}
		if f.Shard == nil || f.Shard.Of != "QF1" || f.Shard.Index != i {
			t.Fatalf("fragment %d shard ref: %+v", i, f.Shard)
		}
		want := catalog.ShardTableName("lineitem", i)
		if f.Stmt.From.Name != want || f.Stmt.From.EffectiveName() != "lineitem" {
			t.Fatalf("fragment %d FROM %q AS %q", i, f.Stmt.From.Name, f.Stmt.From.EffectiveName())
		}
		if f.Candidates[0] != fmt.Sprintf("S%d", i+1) {
			t.Fatalf("fragment %d candidates %v", i, f.Candidates)
		}
	}
}

func TestDecomposeShardedEqPrunesToSingleFragment(t *testing.T) {
	sc := shardedScenario(t, 4, catalog.ShardHash)
	spec := &catalog.ShardSpec{Column: "l_orderkey"}
	want := spec.ShardFor(sqltypes.NewInt(123), 4)
	d, exec := executedShards(t, sc,
		"SELECT l_id FROM lineitem WHERE l_orderkey = 123")
	if !reflect.DeepEqual(exec, []int{want}) {
		t.Fatalf("executed %v, want [%d]", exec, want)
	}
	// One surviving shard gets the whole statement, like an unsharded plan.
	if !d.SingleFragment || len(d.Fragments) != 1 {
		t.Fatalf("expected a single pushed fragment: %+v", d)
	}
	if d.Fragments[0].ID != fmt.Sprintf("QF1.s%d", want) {
		t.Fatalf("fragment id %s", d.Fragments[0].ID)
	}
}

func TestDecomposeShardedRangePruning(t *testing.T) {
	// Scale 200 → 500 rows, bounds [125, 250, 375].
	sc := shardedScenario(t, 4, catalog.ShardRange)
	cases := []struct {
		where string
		want  []int
	}{
		{"l_orderkey < 125", []int{0}},
		{"l_orderkey <= 125", []int{0, 1}},
		{"l_orderkey > 250", []int{2, 3}},
		{"l_orderkey >= 250", []int{2, 3}},
		{"l_orderkey >= 249", []int{1, 2, 3}},
		{"130 > l_orderkey", []int{0, 1}}, // literal-first comparison flips
		{"l_orderkey BETWEEN 130 AND 260", []int{1, 2}},
		{"l_orderkey IS NULL", []int{0}},                  // NULLs sort below every bound
		{"l_orderkey = 5 AND l_orderkey = 400", []int{0}}, // unsatisfiable keeps one shard
		{"l_qty < 10", []int{0, 1, 2, 3}},                 // non-key predicate keeps all
	}
	for _, c := range cases {
		_, exec := executedShards(t, sc,
			"SELECT l_id FROM lineitem WHERE "+c.where)
		if !reflect.DeepEqual(exec, c.want) {
			t.Errorf("WHERE %s: executed %v, want %v", c.where, exec, c.want)
		}
	}
}

func TestDecomposeShardedInPruning(t *testing.T) {
	sc := shardedScenario(t, 4, catalog.ShardHash)
	spec := &catalog.ShardSpec{Column: "l_orderkey"}
	wantSet := map[int]bool{
		spec.ShardFor(sqltypes.NewInt(7), 4):  true,
		spec.ShardFor(sqltypes.NewInt(88), 4): true,
	}
	var want []int
	for i := 0; i < 4; i++ {
		if wantSet[i] {
			want = append(want, i)
		}
	}
	_, exec := executedShards(t, sc,
		"SELECT l_id FROM lineitem WHERE l_orderkey IN (7, 88)")
	if !reflect.DeepEqual(exec, want) {
		t.Fatalf("executed %v, want %v", exec, want)
	}
}

func TestDecomposeShardedPartialAggPushdown(t *testing.T) {
	sc := shardedScenario(t, 4, catalog.ShardHash)
	d, _ := executedShards(t, sc,
		"SELECT l_tag, SUM(l_price), AVG(l_qty), COUNT(*) FROM lineitem GROUP BY l_tag")
	if d.Sharded.Partial == nil {
		t.Fatal("expected partial aggregation pushdown")
	}
	if len(d.Fragments) != 4 {
		t.Fatalf("fragments: %d", len(d.Fragments))
	}
	f := d.Fragments[0]
	// Per-shard layout: group keys then partial states s0.. (AVG ships two);
	// the shard statement keeps WHERE/GROUP BY but swaps the select list.
	if got, want := selectNames(f), []string{"l_tag", "s0", "s1", "s2", "s3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shard select list: %v, want %v", got, want)
	}
	// A group key that is an expression has no partial states: the shards
	// ship the rows' columns the tail reads instead.
	d2, _ := executedShards(t, sc,
		"SELECT SUM(l_price), AVG(l_qty), COUNT(*) FROM lineitem GROUP BY UPPER(l_tag)")
	if d2.Sharded.Partial != nil {
		t.Fatal("an expression group key must not plan partial aggregation")
	}
	for _, f := range d2.Fragments {
		if got, want := selectNames(f), []string{"lineitem.l_qty", "lineitem.l_price", "lineitem.l_tag"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s ships %v, want exactly %v", f.ID, got, want)
		}
	}
}

// selectNames lists a fragment's select list: * for a star, the alias of an
// aliased item, the item's text otherwise.
func selectNames(f *optimizer.FragmentSpec) []string {
	var out []string
	for _, item := range f.Stmt.Select {
		switch {
		case item.Star:
			out = append(out, "*")
		case item.Alias != "":
			out = append(out, item.Alias)
		default:
			out = append(out, item.Expr.String())
		}
	}
	return out
}

func TestDecomposeShardedJoinGathers(t *testing.T) {
	sc := shardedScenario(t, 4, catalog.ShardHash)
	stmt := sqlparser.MustParse(
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 5")
	d, err := optimizer.Decompose(stmt, sc.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if d.SingleFragment {
		t.Fatal("sharded table must not join remotely")
	}
	// orders forms QF1; the sharded lineitem scatters as QF2.s0..s3.
	if len(d.Fragments) != 5 {
		t.Fatalf("fragments: %d", len(d.Fragments))
	}
	if d.Fragments[0].ID != "QF1" || d.Fragments[0].Shard != nil {
		t.Fatalf("first fragment: %+v", d.Fragments[0])
	}
	for i, f := range d.Fragments[1:] {
		if f.ID != fmt.Sprintf("QF2.s%d", i) || f.Shard == nil || f.Shard.Of != "QF2" {
			t.Fatalf("shard fragment %d: %+v", i, f)
		}
		if f.Stmt.Where == nil {
			t.Fatalf("shard fragment %d must carry the pushed l_qty predicate", i)
		}
	}
	if len(d.Cross) != 1 {
		t.Fatalf("cross conjuncts: %v", d.Cross)
	}
}
