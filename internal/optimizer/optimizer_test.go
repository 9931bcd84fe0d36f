package optimizer_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
)

func threeServer(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func replicaPair(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestDecomposeSingleFragment(t *testing.T) {
	sc := threeServer(t)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 100")
	d, err := optimizer.Decompose(stmt, sc.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SingleFragment || len(d.Fragments) != 1 {
		t.Fatalf("fully-replicated join must be a single fragment: %+v", d)
	}
	f := d.Fragments[0]
	if len(f.Candidates) != 3 {
		t.Fatalf("candidates: %v", f.Candidates)
	}
	if f.Stmt != stmt {
		t.Fatal("single fragment must push the whole statement")
	}
	if f.ID != "QF1" {
		t.Fatalf("fragment id: %s", f.ID)
	}
}

func TestDecomposeCrossSource(t *testing.T) {
	sc := replicaPair(t)
	stmt := sqlparser.MustParse("SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000 AND l.l_qty < 5")
	d, err := optimizer.Decompose(stmt, sc.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if d.SingleFragment || len(d.Fragments) != 2 {
		t.Fatalf("cross-source join must split: %+v", d)
	}
	if len(d.Cross) != 1 || !strings.Contains(d.Cross[0].String(), "o_id") {
		t.Fatalf("join predicate must stay cross: %v", d.Cross)
	}
	f0, f1 := d.Fragments[0], d.Fragments[1]
	if f0.Candidates[0] != "R1" || f0.Candidates[1] != "S1" {
		t.Fatalf("orders candidates: %v", f0.Candidates)
	}
	if f1.Candidates[0] != "R2" || f1.Candidates[1] != "S2" {
		t.Fatalf("lineitem candidates: %v", f1.Candidates)
	}
	// Pushed filters end up in fragment WHERE clauses.
	if !strings.Contains(f0.Stmt.String(), "o_amount") {
		t.Fatalf("orders filter not pushed: %s", f0.Stmt)
	}
	if !strings.Contains(f1.Stmt.String(), "l_qty") {
		t.Fatalf("lineitem filter not pushed: %s", f1.Stmt)
	}
}

// Every decomposition shape stamps each fragment with its canonical
// signature, the key the MW and QCC records are kept under.
func TestDecomposeStampsCanonicalSignature(t *testing.T) {
	for _, tc := range []struct {
		sc  *scenario.Scenario
		sql string
	}{
		{threeServer(t), "SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100"},
		{replicaPair(t), "SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000"},
		{shardedScenario(t, 4, catalog.ShardHash), "SELECT l_tag, AVG(l_price) FROM lineitem WHERE l_qty < 7 GROUP BY l_tag"},
		{shardedScenario(t, 4, catalog.ShardHash), "SELECT l_id FROM lineitem WHERE l_orderkey = 77"},
	} {
		d, err := optimizer.Decompose(sqlparser.MustParse(tc.sql), tc.sc.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range d.Fragments {
			if want := sqlparser.CanonicalizeSQL(f.Stmt.String()); f.Sig != want || f.Sig == "" {
				t.Errorf("%s %s: Sig %q, want %q", tc.sql, f.ID, f.Sig, want)
			}
		}
	}
}

func TestDecomposeUnknownNickname(t *testing.T) {
	sc := threeServer(t)
	stmt := sqlparser.MustParse("SELECT * FROM ghost")
	if _, err := optimizer.Decompose(stmt, sc.Catalog); err == nil {
		t.Fatal("unknown nickname must fail")
	}
}

func TestOptimizePicksCheapestServer(t *testing.T) {
	// Equal latencies isolate compute power; at tiny test scales a shorter
	// link would otherwise dominate the cost.
	sc, err := scenario.BuildThreeServer(scenario.Options{
		Scale:     200,
		Latencies: map[string]float64{"S1": 10, "S2": 10, "S3": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
	gp, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Fragments) != 1 {
		t.Fatalf("fragments: %d", len(gp.Fragments))
	}
	// S3 is the most powerful machine; with uncalibrated costs it should be
	// the winner for a scan-heavy query despite the longer link.
	if gp.Fragments[0].ServerID != "S3" {
		t.Fatalf("expected S3, got %s (est %+v)", gp.Fragments[0].ServerID, gp.Fragments[0].Plan.Est)
	}
	if gp.TotalEstMS <= 0 {
		t.Fatal("global estimate must be positive")
	}
}

func TestEnumerateReplicaPairYieldsNinePlans(t *testing.T) {
	sc := replicaPair(t)
	// Q6 in the paper: a join across the two source groups, each with an
	// origin and a replica. Origins offer up to 2 plans, replicas too here;
	// the point is the combination count and the §4.2 pruning downstream.
	stmt := sqlparser.MustParse(`SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 3`)
	plans, err := sc.II.Optimizer().Enumerate(stmt, optimizer.DecomposeOpts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 4 {
		t.Fatalf("expected >=4 global plans (2 servers × 2 servers), got %d", len(plans))
	}
	// Ranked ascending.
	for i := 1; i < len(plans); i++ {
		if plans[i-1].TotalEstMS > plans[i].TotalEstMS {
			t.Fatal("plans not ranked")
		}
	}
	// Server sets must span combinations of {S1,R1}×{S2,R2}.
	sets := map[string]bool{}
	for _, p := range plans {
		sets[p.ServerSetKey()] = true
	}
	if len(sets) != 4 {
		t.Fatalf("expected 4 distinct server sets, got %v", sets)
	}
}

func TestOptimizeSkipsDownServer(t *testing.T) {
	sc := threeServer(t)
	sc.Servers["S3"].SetDown(true)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
	gp, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Fragments[0].ServerID == "S3" {
		t.Fatal("down server must not be chosen")
	}
}

func TestOptimizeFailsWhenAllSourcesDown(t *testing.T) {
	sc := threeServer(t)
	for _, s := range sc.Servers {
		s.SetDown(true)
	}
	stmt := sqlparser.MustParse("SELECT * FROM parts LIMIT 1")
	if _, err := sc.II.Optimizer().Optimize(stmt); err == nil {
		t.Fatal("must fail when no source is available")
	}
}

func TestMaskedServerExcluded(t *testing.T) {
	sc := threeServer(t)
	sc.MW.Mask("S3", true)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
	gp, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Fragments[0].ServerID == "S3" {
		t.Fatal("masked server must be excluded")
	}
}

func TestGlobalPlanKeys(t *testing.T) {
	sc := replicaPair(t)
	stmt := sqlparser.MustParse("SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500")
	gp, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	key := gp.RouteKey()
	if !strings.Contains(key, "QF1@") || !strings.Contains(key, "QF2@") {
		t.Fatalf("route key: %s", key)
	}
	set := gp.ServerSet()
	if len(set) != 2 {
		t.Fatalf("server set: %v", set)
	}
}

// TestExplainTable: a compilation stores its winner — the explain table — as
// one journal entry with a struct per fragment, under query 0 in explain mode.
func TestExplainTable(t *testing.T) {
	sc := threeServer(t)
	gp, err := sc.II.Compile("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	winners := sc.II.Journal().Winners.Tail(0)
	if len(winners) != 1 {
		t.Fatalf("entries: %d", len(winners))
	}
	e := winners[0]
	if e.Query != gp.Query || e.QueryID != 0 || e.TotalEstMS != gp.TotalEstMS || len(e.Fragments) != 1 {
		t.Fatalf("winner: %+v", e)
	}
	f, want := e.Fragments[0], gp.Fragments[0]
	if f.ID != "QF1" || f.Server != want.ServerID || f.PlanSig != want.Plan.Signature || f.EstMS != want.Plan.Est.TotalMS {
		t.Fatalf("fragment details: %+v, plan has %s@%s %s", f, want.Spec.ID, want.ServerID, want.Plan.Signature)
	}
	if len(f.Tables) != 1 || f.Tables[0] != "parts" {
		t.Fatalf("fragment tables: %v", f.Tables)
	}
}

func TestOptimizeEqualsMinOfEnumerate(t *testing.T) {
	sc := threeServer(t)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 2000")
	winner, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sc.II.Optimizer().Enumerate(stmt, optimizer.DecomposeOpts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	min := all[0].TotalEstMS
	for _, p := range all {
		if p.TotalEstMS < min {
			min = p.TotalEstMS
		}
	}
	if winner.TotalEstMS != min {
		t.Fatalf("winner %.3f != min %.3f", winner.TotalEstMS, min)
	}
}

func TestMergeEstimatePositiveForCrossSource(t *testing.T) {
	sc := replicaPair(t)
	stmt := sqlparser.MustParse("SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey")
	gp, err := sc.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if gp.MergeEstMS <= 0 {
		t.Fatalf("cross-source merge estimate must be positive: %g", gp.MergeEstMS)
	}
	// Single-fragment plans have a zero merge estimate.
	sc2 := threeServer(t)
	gp2, err := sc2.II.Optimizer().Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if gp2.MergeEstMS != 0 {
		t.Fatalf("pushdown merge estimate must be zero: %g", gp2.MergeEstMS)
	}
}
