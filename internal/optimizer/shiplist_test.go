package optimizer_test

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
)

// The needed-column rule: a fragment ships exactly the columns of its source
// group that the statement reads outside it — the select list, GROUP BY,
// HAVING, ORDER BY and the cross-source conjuncts — in the group's schema
// order; pushed conjuncts ship nothing. Each case lists the expected select
// list per logical fragment, so no fragment the optimizer builds can ship a
// column neither the merge nor the result reads without failing here.
func TestFragmentsShipOnlyWhatIsRead(t *testing.T) {
	replica := replicaPair(t)                           // {customer, orders} on S1/R1, {lineitem, parts} on S2/R2
	sharded := shardedScenario(t, 4, catalog.ShardHash) // lineitem in 4 shards, the rest everywhere
	const join = " FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey"
	for _, tc := range []struct {
		name string
		sc   *scenario.Scenario
		sql  string
		want map[string][]string
	}{
		{"cross conjunct keys and the select list", replica,
			"SELECT o.o_amount, l.l_price" + join + " WHERE o.o_qty > 3 AND l.l_qty < 5",
			map[string][]string{"QF1": {"o.o_id", "o.o_amount"}, "QF2": {"l.l_orderkey", "l.l_price"}}},
		{"a pushed conjunct ships nothing", replica,
			"SELECT l.l_price" + join + " WHERE o.o_amount > 9000",
			map[string][]string{"QF1": {"o.o_id"}, "QF2": {"l.l_orderkey", "l.l_price"}}},
		{"a non-equi cross conjunct", replica,
			"SELECT o.o_id FROM orders AS o JOIN parts AS p ON o.o_qty < p.p_weight WHERE p.p_id < 30",
			map[string][]string{"QF1": {"o.o_id", "o.o_qty"}, "QF2": {"p.p_weight"}}},
		{"GROUP BY, HAVING and ORDER BY references", replica,
			"SELECT o.o_priority, COUNT(*)" + join + " GROUP BY o.o_priority HAVING SUM(l.l_price) > 10 ORDER BY MAX(l.l_qty), o.o_priority",
			map[string][]string{"QF1": {"o.o_id", "o.o_priority"}, "QF2": {"l.l_orderkey", "l.l_qty", "l.l_price"}}},
		{"ORDER BY on a select alias reads the aliased column", replica,
			"SELECT o.o_amount AS amt, l.l_tag" + join + " ORDER BY amt",
			map[string][]string{"QF1": {"o.o_id", "o.o_amount"}, "QF2": {"l.l_orderkey", "l.l_tag"}}},
		{"an alias that is also a column name keeps that column", replica,
			"SELECT o.o_amount AS l_qty" + join + " ORDER BY l_qty",
			map[string][]string{"QF1": {"o.o_id", "o.o_amount"}, "QF2": {"l.l_orderkey", "l.l_qty"}}},
		{"unqualified references", replica,
			"SELECT o_priority, l_tag FROM orders JOIN lineitem ON o_id = l_orderkey WHERE l_qty < 5",
			map[string][]string{"QF1": {"orders.o_id", "orders.o_priority"}, "QF2": {"lineitem.l_orderkey", "lineitem.l_tag"}}},
		{"a reference in another case", replica,
			"SELECT O.O_AMOUNT" + join,
			map[string][]string{"QF1": {"o.o_id", "o.o_amount"}, "QF2": {"l.l_orderkey"}}},
		{"SELECT * keeps *", replica,
			"SELECT *" + join,
			map[string][]string{"QF1": {"*"}, "QF2": {"*"}}},
		{"every column read keeps *", replica,
			"SELECT c.c_segment, c.c_discount FROM customer AS c JOIN lineitem AS l ON c.c_id = l.l_orderkey",
			map[string][]string{"QF1": {"*"}, "QF2": {"l.l_orderkey"}}},
		{"DISTINCT adds nothing", replica,
			"SELECT DISTINCT o.o_priority, l.l_tag" + join,
			map[string][]string{"QF1": {"o.o_id", "o.o_priority"}, "QF2": {"l.l_orderkey", "l.l_tag"}}},
		{"a group read by nothing still ships one column", replica,
			"SELECT COUNT(*) FROM orders AS o, lineitem AS l WHERE o.o_id < 4 AND l.l_id < 3",
			map[string][]string{"QF1": {"o.o_id"}, "QF2": {"l.l_id"}}},
		{"a two-table group ships columns of both tables", replica,
			"SELECT c.c_segment, SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id GROUP BY c.c_segment",
			map[string][]string{"QF1": {"c.c_segment", "o.o_id"}, "QF2": {"l.l_orderkey", "l.l_price"}}},
		{"three groups, the gathered shards included", sharded,
			"SELECT c.c_segment, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey JOIN customer AS c ON c.c_id = o.o_custkey WHERE l.l_qty < 5",
			map[string][]string{"QF1": {"o.o_id", "o.o_custkey"}, "QF2": {"l.l_orderkey", "l.l_price"}, "QF3": {"c.c_id", "c.c_segment"}}},
		{"one sharded table, an aggregate without partial states ships what the tail reads", sharded,
			"SELECT SUM(l_price) FROM lineitem WHERE l_qty < 7 GROUP BY UPPER(l_tag) ORDER BY SUM(l_price)",
			map[string][]string{"QF1": {"lineitem.l_price", "lineitem.l_tag"}}},
		{"one sharded table, plain rows", sharded,
			"SELECT l_id FROM lineitem WHERE l_price > 500 ORDER BY l_qty",
			map[string][]string{"QF1": {"lineitem.l_id", "lineitem.l_qty"}}},
	} {
		d, err := optimizer.Decompose(sqlparser.MustParse(tc.sql), tc.sc.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := map[string][]string{}
		for _, f := range d.Fragments {
			id := f.ID
			if f.Shard != nil {
				id = f.Shard.Of
			}
			names := selectNames(f)
			if prev, ok := got[id]; ok && !reflect.DeepEqual(prev, names) {
				t.Errorf("%s: shards of %s disagree: %v vs %v", tc.name, id, prev, names)
			}
			got[id] = names
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s\n  %s\n  ships %v\n  want  %v", tc.name, tc.sql, got, tc.want)
		}
	}
}
