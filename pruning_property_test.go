// Column pruning across the fragment boundary is a pure optimization:
// whatever select list the optimizer gives a fragment, the federated answer is
// the single-site answer. The property test drives seeded multi-source
// statements through the replica federation (cross-source joins) and the
// 4-shard federation (gathered shards, pushdown on and off) under both
// engines and compares every result with experiment.GroundTruth.
package fedqcc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// randomMultiSourceQuery generates a valid statement that spans source groups
// in the replica federation, the sharded one, or both: joins of orders,
// customer and parts with lineitem (and lineitem alone, which scatter-gathers
// when sharded) under every tail the rule has to read — plain columns with
// aliases, *, GROUP BY / HAVING / ORDER BY (on keys, aggregates and aliases),
// DISTINCT, LIMIT, non-equi and cross-product merges, unqualified references.
func randomMultiSourceQuery(r *rand.Rand) string {
	pick := func(list ...string) string { return list[r.Intn(len(list))] }
	from, cols, keys, where := "", []string(nil), []string(nil), []string(nil)
	switch shape := r.Intn(10); {
	case shape < 5:
		from = "orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey"
		cols = []string{"o.o_id", "o.o_custkey", "o.o_amount", "o.o_priority", "o.o_qty", "l.l_id", "l.l_qty", "l.l_price", "l.l_tag"}
		keys = []string{"o.o_priority", "l.l_tag", "l.l_qty"}
	case shape < 7:
		from = "customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id"
		cols = []string{"c.c_id", "c.c_segment", "c.c_discount", "o.o_amount", "o.o_priority", "l.l_id", "l.l_price", "l.l_tag"}
		keys = []string{"c.c_segment", "o.o_priority", "l.l_tag"}
	case shape < 9:
		from = "lineitem AS l"
		cols = []string{"l.l_id", "l.l_orderkey", "l.l_qty", "l.l_price", "l.l_tag"}
		keys = []string{"l.l_tag", "l.l_qty"}
	default:
		// Merges without an equi-join key: a nested loop on a cross conjunct,
		// or a bare cross product that reads no column at all.
		if r.Intn(2) == 0 {
			return fmt.Sprintf("SELECT o.o_id, p.p_type FROM orders AS o JOIN parts AS p ON o.o_qty < p.p_weight WHERE o.o_id < %d AND p.p_id < %d",
				5+r.Intn(40), 5+r.Intn(30))
		}
		return fmt.Sprintf("SELECT COUNT(*) FROM orders AS o, lineitem AS l WHERE o.o_id < %d AND l.l_id < %d", 1+r.Intn(9), 1+r.Intn(9))
	}
	if r.Intn(2) == 0 {
		where = append(where, pick("l.l_qty < %d", "l.l_qty >= %d", "l.l_orderkey < %d", "l.l_price > %d"))
		where[0] = fmt.Sprintf(where[0], 1+r.Intn(50))
	}
	if strings.Contains(from, "orders") && r.Intn(2) == 0 {
		where = append(where, fmt.Sprintf(pick("o.o_amount > %d", "o.o_qty < %d0", "o.o_priority IN (1, %d)"), r.Intn(10)))
	}

	var q string
	switch tail := r.Intn(10); {
	case tail < 4: // plain columns, a total order when rows are cut off
		r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		sel := append([]string(nil), cols[:1+r.Intn(3)]...)
		order := pick("l.l_price DESC, l.l_id", "l.l_id", "l.l_tag, l.l_id DESC")
		if r.Intn(3) == 0 {
			sel[0] += " AS first"
			order = "first"
		}
		q = "SELECT " + strings.Join(sel, ", ") + " FROM " + from + whereClause(where)
		switch r.Intn(3) {
		case 0:
			q += fmt.Sprintf(" ORDER BY l.l_id LIMIT %d", 1+r.Intn(40))
		case 1:
			q += " ORDER BY " + order
		}
	case tail < 5: // whole rows, kept small
		q = "SELECT * FROM " + from + whereClause(append(where, fmt.Sprintf("l.l_id < %d", 5+r.Intn(60))))
	case tail < 8: // grouped aggregation
		key := pick(keys...)
		aggs := []string{"COUNT(*) AS n", "SUM(l.l_price) AS total", "AVG(l.l_qty)", "MIN(l.l_price)", "MAX(l.l_id)"}
		r.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
		q = "SELECT " + key + ", " + strings.Join(aggs[:1+r.Intn(3)], ", ") + " FROM " + from + whereClause(where) + " GROUP BY " + key
		if r.Intn(2) == 0 {
			q += pick(" HAVING COUNT(*) > 2", " HAVING SUM(l.l_qty) > 100", " HAVING MAX(l.l_price) > 900")
		}
		q += " ORDER BY " + pick(key, key+" DESC", "MIN(l.l_orderkey), "+key)
	case tail < 9: // scalar aggregation
		q = "SELECT COUNT(*), " + pick("SUM(l.l_price)", "AVG(l.l_qty)", "MAX(l.l_tag)", "MIN(l.l_orderkey)") + " FROM " + from + whereClause(where)
	default:
		q = "SELECT DISTINCT " + pick(keys...) + ", " + pick(keys...) + " FROM " + from + whereClause(where)
	}
	if !strings.Contains(from, "customer") && r.Intn(4) == 0 {
		// The same statement with no alias and no qualifier anywhere (column
		// names are unique across the sample schema).
		q = strings.NewReplacer(" AS o", "", " AS l", "", "o.", "", "l.", "").Replace(q)
	}
	return q
}

func whereClause(conjuncts []string) string {
	if len(conjuncts) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conjuncts, " AND ")
}

func TestPrunedFragmentsReturnGroundTruth(t *testing.T) {
	const scale, seed, statements = 200, 7, 200
	oracle, err := scenario.BuildThreeServer(scenario.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	type arm struct {
		name string
		fed  *fedqcc.Federation
	}
	var arms []arm
	add := func(name string, build func() (*fedqcc.Federation, error), pushdown bool) {
		for _, vectorized := range []bool{true, false} {
			fed, err := build()
			if err != nil {
				t.Fatal(err)
			}
			fed.SetShardPushdown(pushdown)
			engine := "columnar"
			if !vectorized {
				fed.SetVectorized(false)
				fed.SetColumnarWire(false)
				engine = "row"
			}
			arms = append(arms, arm{name + "/" + engine, fed})
		}
	}
	replica := func() (*fedqcc.Federation, error) {
		return fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: scale, Seed: seed})
	}
	sharded := func() (*fedqcc.Federation, error) {
		return fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 4, Scale: scale, Seed: seed})
	}
	add("replica", replica, true)
	add("sharded-pushdown", sharded, true)
	add("sharded-shipall", sharded, false)

	r := rand.New(rand.NewSource(19))
	multi := 0
	for i := 0; i < statements; i++ {
		sql := randomMultiSourceQuery(r)
		want, err := experiment.GroundTruth(oracle, "S1", sql)
		if err != nil {
			t.Fatalf("statement %d: ground truth: %v\n%s", i, err, sql)
		}
		ordered := strings.Contains(sql, " LIMIT ")
		for _, a := range arms {
			res, err := a.fed.Query(sql)
			if err != nil {
				t.Fatalf("statement %d on %s: %v\n%s", i, a.name, err, sql)
			}
			if len(res.FragmentTimes) > 1 {
				multi++
			}
			if diff := experiment.RelationsEquivalent(res.Rows, want, ordered); diff != "" {
				t.Fatalf("statement %d on %s diverged from the single-site answer: %s\n%s", i, a.name, diff, sql)
			}
			// The schema a caller sees is the single site's, column for column.
			for c, col := range want.Schema.Columns {
				if got := res.Rows.Schema.Columns[c]; got != col {
					t.Fatalf("statement %d on %s: result column %d is %+v, single site %+v\n%s", i, a.name, c, got, col, sql)
				}
			}
		}
	}
	// Most arms must really have merged several fragments, or the property
	// says nothing about pruning.
	if multi < statements*len(arms)*2/3 {
		t.Fatalf("only %d of %d runs were multi-fragment", multi, statements*len(arms))
	}
}
