// Sharded-execution integration tests: the scatter-gather engine must be
// invisible when sharding is off (a single-shard federation is bit-identical
// to the pre-sharding engine), and shard pruning must be a pure optimization
// (a pruned scatter-gather returns exactly the single-site rows, for any
// predicate shape, NULL shard keys included).
package fedqcc_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/sqltypes"
)

// shardedFed builds the scale-out scenario at a test-friendly scale.
func shardedFed(t testing.TB, opts fedqcc.ShardedFederationOptions) *fedqcc.Federation {
	t.Helper()
	if opts.Scale == 0 {
		opts.Scale = 100
	}
	fed, err := fedqcc.NewShardedFederation(opts)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// runWorkloadOn is runVecWorkload over an explicit federation.
func runWorkloadOn(t *testing.T, fed *fedqcc.Federation, sqls []string) vecRunOutcome {
	t.Helper()
	fed.EnableTelemetry()
	out := vecRunOutcome{
		results: make([]*fedqcc.QueryResult, len(sqls)),
		trees:   make([]string, len(sqls)),
		fed:     fed,
	}
	for i, q := range sqls {
		res, err := fed.Query(q)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		out.results[i] = res
		if tr := fed.Telemetry().Tracer().Last(); tr != nil {
			out.trees[i] = tr.Tree()
		}
	}
	out.clock = fed.Now()
	return out
}

var shardedWorkload = []string{
	"SELECT l_id, l_price FROM lineitem WHERE l_price > 500",
	"SELECT l_tag, SUM(l_price), COUNT(*) FROM lineitem GROUP BY l_tag",
	"SELECT AVG(l_qty) FROM lineitem WHERE l_orderkey < 500",
	"SELECT COUNT(*) FROM lineitem WHERE l_orderkey = 37",
	"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 5",
	"SELECT l_id FROM lineitem ORDER BY l_price DESC LIMIT 10",
}

// TestShardedSingleShardIdentity is the sharding-off acceptance gate: a
// single-shard sharded federation must be observationally indistinguishable
// — rows, charges, routes, span trees, virtual clock — from the same
// federation assembled through the pre-sharding Builder path.
// RegisterSharded degrades a 1-shard map to a plain nickname, so
// this pins the whole engine to the pre-sharding code paths by construction.
func TestShardedSingleShardIdentity(t *testing.T) {
	const scale = 50
	baselineFed := func() *fedqcc.Federation {
		b := fedqcc.NewBuilder(42)
		b.AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{LatencyMS: 5, BandwidthKBps: 2000})
		for _, spec := range fedqcc.StandardSchema(scale) {
			b.AddGeneratedTable("S1", spec)
		}
		fed, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}
	got := runWorkloadOn(t, shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 1, Scale: scale}), shardedWorkload)
	want := runWorkloadOn(t, baselineFed(), shardedWorkload)
	requireVecIdentity(t, shardedWorkload, want, got)
}

// TestShardedPrunedVsUnpruned is the pruning-correctness property test:
// for every predicate shape, the 4-shard federation, which executes only
// the pruned shard set, returns exactly the rows of the unpruned
// single-shard federation built from the same options — including NULL
// shard keys, empty shards, and aggregate merges. Row order is compared
// only where the statement fixes it, which none of these shapes does.
func TestShardedPrunedVsUnpruned(t *testing.T) {
	shapes := []string{
		"SELECT l_id, l_orderkey, l_price FROM lineitem WHERE %s",
		"SELECT COUNT(*), SUM(l_qty), AVG(l_qty), MIN(l_price), MAX(l_price) FROM lineitem WHERE %s",
		"SELECT l_tag, COUNT(*), SUM(l_qty) FROM lineitem WHERE %s GROUP BY l_tag",
	}
	for _, ranged := range []bool{false, true} {
		opts := fedqcc.ShardedFederationOptions{Shards: 4, RangeSharding: ranged, NullKeyFrac: 0.15}
		sharded := shardedFed(t, opts)
		opts.Shards = 1
		single := shardedFed(t, opts)
		for _, pred := range experiment.ShardPredicates() {
			for _, shape := range shapes {
				sql := fmt.Sprintf(shape, pred)
				pruned, err := sharded.Query(sql)
				if err != nil {
					t.Fatalf("pruned %s: %v", sql, err)
				}
				want, err := single.Query(sql)
				if err != nil {
					t.Fatalf("single-site %s: %v", sql, err)
				}
				got, exp := exactRows(pruned.Rows), exactRows(want.Rows)
				if len(got) != len(exp) {
					t.Fatalf("%s (range=%v): %d rows pruned vs %d single-site", sql, ranged, len(got), len(exp))
				}
				for i := range exp {
					if got[i] != exp[i] {
						t.Fatalf("%s (range=%v): sorted row %d diverged: pruned %s, single-site %s", sql, ranged, i, got[i], exp[i])
					}
				}
			}
		}
	}
}

// exactRows renders every row bit for bit (floats by their bits) and sorts
// the renderings, so two relations compare as multisets of rows.
func exactRows(rel *sqltypes.Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		var b strings.Builder
		for _, v := range row {
			if v.Kind() == sqltypes.KindFloat {
				fmt.Fprintf(&b, "f%x|", math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
			}
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// TestShardedPushdownSameAnswers: a sharded aggregate returns the single
// site's answer whether its shards ship partial aggregate states (column
// group keys) or the rows the tail reads (a group key that is an expression),
// and each statement ships the way its shape says.
func TestShardedPushdownSameAnswers(t *testing.T) {
	fed := shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 4})
	oracle, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		ship string
	}{
		{"SELECT COUNT(*), SUM(l_qty), AVG(l_qty), MIN(l_price), MAX(l_price) FROM lineitem", "pushdown-col"},
		{"SELECT l_tag, COUNT(*), SUM(l_qty), SUM(l_price) FROM lineitem GROUP BY l_tag ORDER BY l_tag", "pushdown-col"},
		{"SELECT l_tag, AVG(l_price) FROM lineitem WHERE l_qty > 10 GROUP BY l_tag HAVING COUNT(*) > 3 ORDER BY l_tag", "pushdown-col"},
		{"SELECT COUNT(*), SUM(l_price), MIN(l_price) FROM lineitem GROUP BY MOD(l_qty, 3)", "col-ship"},
		{"SELECT AVG(l_price) FROM lineitem WHERE l_qty > 10 GROUP BY l_qty + 1 HAVING COUNT(*) > 3", "col-ship"},
	} {
		res, err := fed.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		want, err := experiment.GroundTruth(oracle, "S1", c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if diff := experiment.RelationsEquivalent(res.Rows, want, strings.Contains(c.sql, "ORDER BY")); diff != "" {
			t.Fatalf("%s: %s", c.sql, diff)
		}
		rec, ok := fed.QueryRecord(res.ID)
		if !ok || len(rec.Runs) != 4 {
			t.Fatalf("%s: %d fragment runs recorded, want 4", c.sql, len(rec.Runs))
		}
		for _, run := range rec.Runs {
			if run.Ship.String() != c.ship {
				t.Fatalf("%s: fragment %s shipped %s, want %s", c.sql, run.FragID, run.Ship, c.ship)
			}
		}
	}
}

// TestEnumerationSurfacesDecomposeAlike: explain mode, the federation's plan
// enumeration and QCC's what-if enumeration on the simulated system decompose
// a statement one way, so every plan each returns runs the same fragment
// statements — for a sharded aggregate that pushes partial states and for one
// that ships rows because a group key is an expression.
func TestEnumerationSurfacesDecomposeAlike(t *testing.T) {
	fed := shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 4})
	wi, err := fed.EnableQCC(fedqcc.QCCOptions{}).WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql     string
		partial bool
	}{
		{"SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag", true},
		{"SELECT COUNT(*), SUM(l_price) FROM lineitem GROUP BY MOD(l_qty, 3)", false},
	} {
		explained, err := fed.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(explained.FragmentSQL) != 4 {
			t.Fatalf("%s: %d fragments, want one per shard: %v", c.sql, len(explained.FragmentSQL), explained.FragmentSQL)
		}
		for id, sql := range explained.FragmentSQL {
			if strings.Contains(sql, "GROUP BY") != c.partial {
				t.Fatalf("%s: fragment %s runs %q, partial states %v", c.sql, id, sql, c.partial)
			}
		}
		enumerated, err := fed.EnumeratePlans(c.sql, 0)
		if err != nil {
			t.Fatal(err)
		}
		whatIf, err := wi.EnumeratePlans(c.sql, 0)
		if err != nil {
			t.Fatal(err)
		}
		for surface, plans := range map[string][]*fedqcc.PlanInfo{"EnumeratePlans": enumerated, "WhatIf().EnumeratePlans": whatIf} {
			if len(plans) == 0 {
				t.Fatalf("%s: %s returned no plan", c.sql, surface)
			}
			for i, p := range plans {
				if !reflect.DeepEqual(p.FragmentSQL, explained.FragmentSQL) {
					t.Fatalf("%s: %s plan %d runs %v, Explain %v", c.sql, surface, i, p.FragmentSQL, explained.FragmentSQL)
				}
			}
		}
	}
}

// TestShardedJoinMatchesUnsharded: joining a sharded table against a
// replicated one at the integrator returns exactly the single-server answer.
func TestShardedJoinMatchesUnsharded(t *testing.T) {
	const sql = "SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 20 ORDER BY l.l_id"
	single := shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 1})
	sharded := shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 4})
	want, err := single.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows.Rows) == 0 || len(got.Rows.Rows) != len(want.Rows.Rows) {
		t.Fatalf("rows: %d sharded vs %d single", len(got.Rows.Rows), len(want.Rows.Rows))
	}
	for ri := range want.Rows.Rows {
		for ci := range want.Rows.Rows[ri] {
			if !cellsBitIdentical(got.Rows.Rows[ri][ci], want.Rows.Rows[ri][ci]) {
				t.Fatalf("cell (%d,%d): %#v vs %#v", ri, ci, got.Rows.Rows[ri][ci], want.Rows.Rows[ri][ci])
			}
		}
	}
	// The sharded run must actually have scattered lineitem.
	found := 0
	for id := range got.Route {
		if strings.Contains(id, ".s") {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("expected 4 shard fragments in the route, got %v", got.Route)
	}
}

// TestShardedTelemetry: shard fragments annotate their spans with the shard
// index and bump the shard.fragments counter per server.
func TestShardedTelemetry(t *testing.T) {
	fed := shardedFed(t, fedqcc.ShardedFederationOptions{Shards: 4})
	fed.EnableTelemetry()
	if _, err := fed.Query("SELECT l_tag, COUNT(*) FROM lineitem GROUP BY l_tag"); err != nil {
		t.Fatal(err)
	}
	tree := fed.Telemetry().Tracer().Last().Tree()
	for i := 0; i < 4; i++ {
		if !strings.Contains(tree, fmt.Sprintf("shard=%d", i)) {
			t.Fatalf("span tree missing shard=%d:\n%s", i, tree)
		}
	}
	m := fed.Telemetry().Metrics()
	var total int64
	for _, id := range fed.ServerIDs() {
		total += m.CounterValue("shard.fragments", id)
	}
	if total != 4 {
		t.Fatalf("shard.fragments total = %d, want 4", total)
	}
}

// TestBuilderShardedTable: the builder API shards a generated table across
// named servers and answers queries identically to a single-server build.
func TestBuilderShardedTable(t *testing.T) {
	const sql = "SELECT l_id, l_price FROM lineitem WHERE l_orderkey < 200 ORDER BY l_id"
	schema := fedqcc.StandardSchema(100)
	var lineSpec fedqcc.TableSpec
	for _, s := range schema {
		if s.Name == "lineitem" {
			lineSpec = s
		}
	}

	b := fedqcc.NewBuilder(42)
	b.AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{})
	b.AddServer("S2", fedqcc.ProfileMidrange, fedqcc.LinkSpec{})
	b.AddShardedTable(lineSpec, "l_orderkey", "S1", "S2")
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, nick := range fed.Nicknames() {
		if strings.Contains(nick, "__s") {
			t.Fatalf("physical shard table %q leaked into the catalog", nick)
		}
	}
	hosts, err := fed.PlacementsOf("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("placements: %v", hosts)
	}

	base := fedqcc.NewBuilder(42)
	base.AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{})
	base.AddGeneratedTable("S1", lineSpec)
	baseFed, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}

	got, err := fed.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseFed.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows.Rows) == 0 || len(got.Rows.Rows) != len(want.Rows.Rows) {
		t.Fatalf("rows: %d sharded vs %d baseline", len(got.Rows.Rows), len(want.Rows.Rows))
	}
	for ri := range want.Rows.Rows {
		for ci := range want.Rows.Rows[ri] {
			if !cellsBitIdentical(got.Rows.Rows[ri][ci], want.Rows.Rows[ri][ci]) {
				t.Fatalf("cell (%d,%d): %#v vs %#v", ri, ci, got.Rows.Rows[ri][ci], want.Rows.Rows[ri][ci])
			}
		}
	}
}

// TestGatherJoinMergeFollowsTheEarlyShards pins the shape of the sharded
// benchmark's gather join: orders, the join's left input, arrives last, and
// the merge builds on the lineitem shards that arrived before it and streams
// orders, so almost none of the merge's work is left once the slowest
// fragment is in. With the left input always built, every probe row waited
// for orders and 92% of the merge followed the last arrival.
func TestGatherJoinMergeFollowsTheEarlyShards(t *testing.T) {
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, amount := range []int{0, 1700, 4999} {
		sql := fmt.Sprintf("SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN %d AND %d GROUP BY o.o_priority ORDER BY o.o_priority", amount, amount+5000)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		var slowest fedqcc.Time
		for _, ft := range res.FragmentTimes {
			slowest = max(slowest, ft)
		}
		if tail := res.ResponseTime - slowest; tail > res.MergeTime*5/100 {
			t.Errorf("amount %d: %v of the merge's %v follows the last arrival (%v); want at most 5%%", amount, tail, res.MergeTime, slowest)
		}
	}
}
