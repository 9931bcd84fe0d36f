package remote_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The plan-set oracle: the bind-once planner must return, for every
// statement, exactly what the enumerate-then-assemble reference in
// planner_ref_test.go returns — same combinations visited, same plans in the
// same order, same signature, every estimate field bit for bit, and operator
// trees that execute to the same rows at the same resource cost.

// oracleScale keeps tables small (500-row orders/lineitem, 5-row customer) so
// every candidate plan of every statement can be executed.
const oracleScale = 200

// profileServers builds one server per paper profile, each hosting the whole
// sample schema.
func profileServers(t *testing.T, maxPlans int) []*remote.Server {
	t.Helper()
	var out []*remote.Server
	for _, cfg := range []remote.Config{remote.ProfileS1("S1"), remote.ProfileS2("S2"), remote.ProfileS3("S3")} {
		cfg.MaxPlans = maxPlans
		s := remote.NewServer(cfg)
		for _, g := range storage.SampleSchema(oracleScale) {
			tab, err := g.Generate(7)
			if err != nil {
				t.Fatal(err)
			}
			s.AddTable(tab)
		}
		out = append(out, s)
	}
	return out
}

func estimateBits(e remote.CostEstimate) [5]uint64 {
	return [5]uint64{
		math.Float64bits(e.TotalMS), math.Float64bits(e.FirstTupleMS), math.Float64bits(e.NextTupleMS),
		uint64(e.Card), uint64(e.OutBytes),
	}
}

// samePlan compares everything a Plan carries except the operator tree's
// identity; execute additionally runs both trees.
func samePlan(got, want *remote.Plan, execute bool) error {
	switch {
	case got.Signature != want.Signature:
		return fmt.Errorf("signature\n got:\n%s want:\n%s", got.Signature, want.Signature)
	case estimateBits(got.Est) != estimateBits(want.Est):
		return fmt.Errorf("estimate for\n%s got %v want %v", want.Signature, got.Est, want.Est)
	case got.ServerID != want.ServerID || got.SQL != want.SQL || !reflect.DeepEqual(got.Tables, want.Tables):
		return fmt.Errorf("header: got %s %q %v, want %s %q %v", got.ServerID, got.SQL, got.Tables, want.ServerID, want.SQL, want.Tables)
	case exec.ExplainTree(got.Root) != want.Signature:
		return fmt.Errorf("root does not render its signature:\n%s", exec.ExplainTree(got.Root))
	}
	if !execute {
		return nil
	}
	gctx, wctx := &exec.Context{}, &exec.Context{}
	grel, gerr := got.Root.Execute(gctx)
	wrel, werr := want.Root.Execute(wctx)
	if (gerr != nil) != (werr != nil) {
		return fmt.Errorf("executing\n%s got error %v, want %v", want.Signature, gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if grel.Schema.String() != wrel.Schema.String() || !reflect.DeepEqual(grel.Rows, wrel.Rows) {
		return fmt.Errorf("executing\n%s rows differ:\n%s\nwant\n%s", want.Signature, grel, wrel)
	}
	if gctx.Res != wctx.Res {
		return fmt.Errorf("executing\n%s resources %v, want %v", want.Signature, gctx.Res, wctx.Res)
	}
	return nil
}

// checkStatement compares the production enumeration and Explain with the
// reference on one server. It returns the number of plans compared.
func checkStatement(t *testing.T, s *remote.Server, stmt *sqlparser.SelectStmt, execute bool) int {
	t.Helper()
	want, wantVisited, wantErr := s.RefEnumerate(stmt)
	got, gotVisited, gotErr := s.Enumerate(stmt)
	label := fmt.Sprintf("%s: %s", s.ID(), stmt)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", label, gotErr, wantErr)
		}
		return 0
	}
	if len(want) == 0 {
		// The reference swallowed every cause; production names the first
		// one (or finds no valid plan within the cap). Either way Explain
		// must fail.
		if _, err := s.Explain(stmt); err == nil {
			t.Errorf("%s: Explain succeeded where the reference found no plan", label)
		}
		return 0
	}
	if gotErr != nil {
		t.Errorf("%s: %v", label, gotErr)
		return 0
	}
	if gotVisited != wantVisited {
		t.Errorf("%s: visited %d combinations, want %d", label, gotVisited, wantVisited)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d plans, want %d", label, len(got), len(want))
		return 0
	}
	seen := map[string]bool{}
	for i := range want {
		if err := samePlan(got[i], want[i], execute); err != nil {
			t.Errorf("%s: plan %d: %v", label, i, err)
		}
		if seen[got[i].Signature] {
			t.Errorf("%s: duplicate signature\n%s", label, got[i].Signature)
		}
		seen[got[i].Signature] = true
	}

	// Explain = the enumeration ranked by total cost and cut at MaxPlans.
	ranked := append([]*remote.Plan(nil), want...)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Est.TotalMS < ranked[j].Est.TotalMS })
	if max := s.Config().MaxPlans; len(ranked) > max {
		ranked = ranked[:max]
	}
	s.ResetPlanCache()
	explained, err := s.Explain(stmt)
	if err != nil || len(explained) != len(ranked) {
		t.Errorf("%s: Explain returned %d plans (%v), want %d", label, len(explained), err, len(ranked))
		return len(want)
	}
	for i := range ranked {
		if err := samePlan(explained[i], ranked[i], false); err != nil {
			t.Errorf("%s: Explain plan %d: %v", label, i, err)
		}
	}
	return len(want)
}

// edgeStatements are the shapes the random and benchmark streams do not
// reach: every access path of an INL inner table, range and equality probes
// on a hash index, joins without an equi key, conjuncts no join step can
// place, literal-true conjuncts, self joins, unqualified columns, four tables.
var edgeStatements = []string{
	// orders_cust is a hash index: equality probes it, ranges cannot.
	"SELECT o.o_id FROM orders AS o WHERE o.o_custkey = 3",
	"SELECT o.o_id FROM orders AS o WHERE o.o_custkey < 3",
	"SELECT o.o_id FROM orders AS o WHERE o.o_custkey BETWEEN 1 AND 3 AND o.o_id > 40",
	"SELECT o.o_id FROM orders AS o WHERE 3 >= o.o_custkey AND o.o_id = 17",
	// INL inner (lineitem via lineitem_ord) with each of its own access paths usable or not.
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_id < 60",
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_orderkey BETWEEN 10 AND 90",
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_id < 200 AND l.l_orderkey > 5 AND l.l_qty > 10",
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_id < 50 AND l.l_price > 500",
	"SELECT o.o_id, l.l_id FROM lineitem AS l JOIN orders AS o ON o.o_id = l.l_orderkey WHERE o.o_custkey = 2",
	"SELECT c.c_id, o.o_id FROM customer AS c JOIN orders AS o ON c.c_id = o.o_custkey WHERE o.o_custkey = 1",
	// The equi key's inner side has no index: no INL.
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_qty = l.l_qty WHERE o.o_id < 20 AND l.l_id < 20",
	// No equi key: nested loops only; a residual beside a key; a key written as a WHERE conjunct.
	"SELECT o.o_id, c.c_id FROM orders AS o JOIN customer AS c ON o.o_custkey < c.c_id WHERE o.o_id < 30",
	"SELECT o.o_id, c.c_id FROM orders AS o JOIN customer AS c ON TRUE WHERE o.o_id < 10",
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey AND o.o_qty > l.l_qty WHERE o.o_id < 100",
	"SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON TRUE WHERE o.o_id = l.l_orderkey AND l.l_id < 80 AND (o.o_qty > 50 OR l.l_qty < 5)",
	"SELECT o.o_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey AND o.o_id = l.l_id WHERE o.o_id < 50",
	// A conjunct over three tables waits for the last join; one over no table at all.
	"SELECT COUNT(*) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_id + o.o_qty > l.l_qty AND o.o_id < 40",
	"SELECT COUNT(*) FROM customer AS c JOIN orders AS o ON TRUE JOIN lineitem AS l ON l.l_orderkey = o.o_id AND o.o_custkey = c.c_id WHERE l.l_id < 50",
	"SELECT o.o_id FROM orders AS o WHERE 1 AND o.o_id < 5 AND 2 > 1",
	"SELECT o.o_id FROM orders AS o WHERE 0 > 1 AND o.o_id < 5",
	// Self join, unqualified and unaliased names, IN, LIKE, NOT BETWEEN, DISTINCT, HAVING, ORDER BY alias.
	"SELECT a.o_id, b.o_id FROM orders AS a JOIN orders AS b ON a.o_id = b.o_custkey WHERE a.o_id < 4",
	"SELECT o_id, o_qty FROM orders WHERE o_id BETWEEN 10 AND 20 AND o_custkey = 2",
	"SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem WHERE l_price BETWEEN 100 AND 900 GROUP BY l_tag",
	"SELECT o.o_id FROM orders AS o WHERE o.o_id IN (1, 5, 9) AND o.o_id NOT BETWEEN 4 AND 6",
	"SELECT c.c_id FROM customer AS c WHERE c.c_segment LIKE 'a%' AND c.c_id >= 0",
	"SELECT DISTINCT o.o_priority AS p FROM orders AS o WHERE o.o_id <= 300 ORDER BY p LIMIT 3",
	"SELECT o.o_priority, COUNT(*) AS n FROM orders AS o WHERE o.o_id > 7 GROUP BY o.o_priority HAVING SUM(o.o_qty) > 10 ORDER BY n DESC, o.o_priority",
	"SELECT * FROM orders AS o WHERE o.o_id = 12",
	"SELECT * FROM customer AS c JOIN orders AS o ON TRUE WHERE o.o_custkey = c.c_id AND c.c_discount < 0.1 AND o.o_amount > 5000",
	// Four tables (432 x 64 combinations, far past the cap) and five crossed
	// ones (the only valid combination lies past the cap: no plan).
	"SELECT COUNT(*) FROM parts AS p JOIN customer AS c ON p.p_id = c.c_id JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE p.p_id < 4",
	"SELECT COUNT(*) FROM customer AS a JOIN customer AS b ON TRUE JOIN customer AS c ON TRUE JOIN customer AS d ON TRUE JOIN customer AS e ON TRUE",
	// Errors: a tail that cannot be planned, a table nobody hosts.
	"SELECT *, COUNT(*) FROM orders AS o",
	"SELECT n.x FROM nowhere AS n",
}

func TestPlanSetOracle(t *testing.T) {
	var stmts []*sqlparser.SelectStmt
	distinct := map[string]bool{} // statement texts compared, fragments included
	add := func(sql string) {
		if distinct[sql] {
			return
		}
		distinct[sql] = true
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		stmts = append(stmts, stmt)
	}
	for seed := int64(1); seed <= 5; seed++ {
		gen := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			add(experiment.RandomQuery(gen))
		}
	}
	for _, it := range workload.UniformMix(10) { // paper_mix
		add(it.SQL)
	}
	for _, sql := range edgeStatements {
		add(sql)
	}

	// Every statement on every profile, at both plan budgets; each
	// statement's candidate plans are executed on one of the three.
	plans := 0
	for _, maxPlans := range []int{2, 50} {
		servers := profileServers(t, maxPlans)
		for i, stmt := range stmts {
			for j, s := range servers {
				plans += checkStatement(t, s, stmt, maxPlans == 50 && i%len(servers) == j)
			}
		}
	}

	// The fragment statements the decomposer actually ships, on the servers
	// that host them: xjoin_churn's replica pair (II joins: SELECT * fragments
	// with pushed conjuncts) and ship_cols' four shards (partial-aggregate
	// states, pruned and gathered shards).
	fragments := func(sc *scenario.Scenario, sqls []string) {
		for _, sql := range sqls {
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			decomp, err := optimizer.Decompose(stmt, sc.Catalog)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, frag := range decomp.Fragments {
				for _, id := range frag.Candidates {
					plans += checkStatement(t, sc.Servers[id], frag.Stmt, true)
				}
				distinct[frag.Stmt.String()] = true
			}
		}
	}
	pair, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: oracleScale, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fragments(pair, []string{
		"SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 4000 AND 4500 AND l.l_qty BETWEEN 11 AND 20",
		"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 2500 AND 4500 GROUP BY o.o_priority ORDER BY o.o_priority",
		"SELECT c.c_segment, COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_discount BETWEEN 0.0500 AND 0.1000 GROUP BY c.c_segment ORDER BY c.c_segment",
		"SELECT COUNT(*), AVG(o.o_amount), MAX(o.o_qty) FROM orders AS o WHERE o.o_amount BETWEEN 1000 AND 6000",
	})
	sharded, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: oracleScale, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fragments(sharded, []string{
		"SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem WHERE l_price BETWEEN 50 AND 850 GROUP BY l_tag",
		"SELECT l_id, l_orderkey, l_qty FROM lineitem WHERE l_qty BETWEEN 20 AND 24",
		"SELECT l_id, l_orderkey, l_qty, l_price, l_tag FROM lineitem WHERE l_price BETWEEN 400 AND 500",
		"SELECT l_id, l_qty, l_price FROM lineitem WHERE l_orderkey = 77",
		"SELECT l_id, l_orderkey, l_price FROM lineitem WHERE l_orderkey BETWEEN 100 AND 300 ORDER BY l_id",
		"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 2000 AND 7000 GROUP BY o.o_priority ORDER BY o.o_priority",
		"SELECT MIN(l.l_price), MAX(l.l_qty), COUNT(l.l_tag) FROM lineitem AS l WHERE l.l_id < 400",
	})

	if len(distinct) < 500 {
		t.Errorf("oracle covered %d distinct statements, want at least 500", len(distinct))
	}
	t.Logf("%d distinct statements, %d plans compared", len(distinct), plans)
}

// TestEnumerationCapCountsEveryCombination pins the cap's meaning: it counts
// combinations in visiting order whether or not they are valid, so the
// three-table fragment stops at 128 of its 2·3·3·4·4 = 288 combinations —
// before customer_pk is ever tried — and yields four distinct plans. The
// merge-join slot, which no longer names a plan, is counted too.
func TestEnumerationCapCountsEveryCombination(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT COUNT(*), MIN(l.l_price), MAX(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_id < 4")
	for _, s := range profileServers(t, 50) {
		plans, visited, err := s.Enumerate(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if visited != 128 || len(plans) != 4 {
			t.Errorf("%s: visited %d combinations for %d plans, want 128 for 4", s.ID(), visited, len(plans))
		}
		for _, p := range plans {
			if strings.Contains(p.Signature, "customer_pk") {
				t.Errorf("%s: a plan probes customer_pk; the cap no longer counts today's combinations:\n%s", s.ID(), p.Signature)
			}
		}
		checkStatement(t, s, stmt, true)
	}
}

// TestExplainAllocationBudget holds a cold Explain of the one-, two- and
// three-table shapes to a committed allocation ceiling. The counts repeat
// exactly — 109, 179 and 366 today (220 and 619 while merge-join plans were
// still built and priced); a -race build adds up to a tenth because sync.Pool
// drops there, which is all the headroom the ceilings leave. The
// enumerate-then-assemble planner this one replaced needed 163, 1 623 and
// 12 554 for the same statements, so a reintroduced per-choice re-split,
// re-qualification or error-as-control-flow fails here by name.
func TestExplainAllocationBudget(t *testing.T) {
	s := profileServers(t, 2)[0]
	for _, tc := range []struct {
		sql     string
		ceiling float64
	}{
		{"SELECT o.o_id, o.o_amount FROM orders AS o WHERE o.o_id BETWEEN 100 AND 180 ORDER BY o.o_id", 120},
		{"SELECT COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 2000", 200},
		{"SELECT COUNT(*), MIN(l.l_price), MAX(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_id < 4", 410},
	} {
		stmt := sqlparser.MustParse(tc.sql)
		got := testing.AllocsPerRun(20, func() {
			s.ResetPlanCache()
			if _, err := s.Explain(stmt); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("cold Explain of %q: %.0f allocations, ceiling %.0f", tc.sql, got, tc.ceiling)
		}
	}
}
