package integrator_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/wrapper"

	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// tableRows returns tab's rows, materialized for the caller.
func tableRows(tab *storage.Table) []sqltypes.Row {
	v := tab.View()
	defer v.Close()
	return v.Rows()
}

func threeServer(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestQuerySingleFragmentEndToEnd(t *testing.T) {
	sc := threeServer(t)
	res, err := sc.II.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Cardinality() != 1 {
		t.Fatalf("rows: %d", res.Rel.Cardinality())
	}
	n := res.Rel.Rows[0][0].Int()
	want := int64(0)
	for _, r := range tableRows(sc.Servers["S1"].Table("orders")) {
		if r[2].Float() > 5000 {
			want++
		}
	}
	if n != want {
		t.Fatalf("count %d want %d", n, want)
	}
	if res.ResponseTime <= 0 || len(res.FragmentTimes) != 1 {
		t.Fatalf("timing: %+v", res)
	}
}

func TestQueryAdvancesClockAndLogs(t *testing.T) {
	sc := threeServer(t)
	t0 := sc.Clock.Now()
	res, err := sc.II.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Clock.Now() != t0+res.ResponseTime {
		t.Fatalf("clock: %v -> %v, response %v", t0, sc.Clock.Now(), res.ResponseTime)
	}
	log := sc.II.Journal().Queries()
	if len(log) != 1 || !log[0].Completed || log[0].Err != "" {
		t.Fatalf("patroller log: %+v", log)
	}
	if log[0].ResponseTime != res.ResponseTime {
		t.Fatal("patroller response time mismatch")
	}
}

func TestQueryCrossSourceMerge(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.II.Query(`SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 5000`)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a single-site computation using raw tables.
	amounts := map[int64]bool{}
	for _, r := range tableRows(sc.Servers["S1"].Table("orders")) {
		if r[2].Float() > 5000 {
			amounts[r[0].Int()] = true
		}
	}
	want := int64(0)
	for _, r := range tableRows(sc.Servers["S2"].Table("lineitem")) {
		if amounts[r[1].Int()] {
			want++
		}
	}
	if got := res.Rel.Rows[0][0].Int(); got != want {
		t.Fatalf("cross-source count %d want %d", got, want)
	}
	if len(res.FragmentTimes) != 2 {
		t.Fatalf("fragment times: %+v", res.FragmentTimes)
	}
	if res.MergeTime <= 0 {
		t.Fatal("merge time must be positive")
	}
}

// TestCrossSourceJoinLimitRowAndColumnarMerge covers the one statement shape
// whose merge charge the single-tree merge changed: a multi-fragment join
// with LIMIT and nothing blocking under it, over more joined rows than one
// 256-row batch. Both engines must return the oracle's rows and charge the
// II node the same exec.Resources — those of the fully materialized tree.
func TestCrossSourceJoinLimitRowAndColumnarMerge(t *testing.T) {
	const sql = `SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey LIMIT 300`
	run := func(vectorized bool) (*scenario.Scenario, *integrator.QueryResult) {
		sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 50})
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range sc.Servers {
			srv.SetVectorized(vectorized)
		}
		sc.II.SetVectorized(vectorized)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return sc, res
	}
	sc, row := run(false)
	_, vec := run(true)

	scan := func(serverID, table, as string) exec.Operator {
		return &exec.SeqScan{Table: sc.Servers[serverID].Table(table), As: as}
	}
	oracle, err := exec.BuildPlan(sqlparser.MustParse(sql), map[string]exec.Operator{
		"o": scan("S1", "orders", "o"),
		"l": scan("S2", "lineitem", "l"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Execute(&exec.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 300 {
		t.Fatalf("oracle returned %d rows; the scenario needs the LIMIT to bind", want.Cardinality())
	}
	requireSameRows := func(label string, got *sqltypes.Relation) {
		t.Helper()
		if got.Cardinality() != want.Cardinality() {
			t.Fatalf("%s: %d rows, oracle %d", label, got.Cardinality(), want.Cardinality())
		}
		for i, r := range want.Rows {
			for j := range r {
				if got.Rows[i][j] != r[j] {
					t.Fatalf("%s: cell (%d,%d) %v, oracle %v", label, i, j, got.Rows[i][j], r[j])
				}
			}
		}
	}
	requireSameRows("row merge", row.Rel)
	requireSameRows("columnar merge", vec.Rel)

	// The same merge tree over the same fragment results, run on both engines
	// outside the II, gives the Resources each merge must have charged.
	gp := row.Plan
	leaves := make([]exec.Operator, len(gp.Fragments))
	for i, f := range gp.Fragments {
		tr := f.Spec.Stmt.Tables()[0]
		frag, err := exec.BuildPlan(f.Spec.Stmt, map[string]exec.Operator{
			tr.EffectiveName(): scan(row.ExecutedServers[f.Spec.ID], tr.Name, tr.EffectiveName()),
		})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := frag.Execute(&exec.Context{})
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = &exec.Values{Rel: rel, Col: colbatch.FromRelation(rel)}
	}
	top, err := exec.BuildTop(gp.Stmt, exec.JoinLeftDeep(leaves, gp.Decomp.Cross, nil))
	if err != nil {
		t.Fatal(err)
	}
	var rowCtx, vecCtx exec.Context
	rowRel, err := top.Execute(&rowCtx)
	if err != nil {
		t.Fatal(err)
	}
	vecBatch, err := exec.ExecuteVectorized(top, &vecCtx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows("row tree", rowRel)
	requireSameRows("columnar tree", vecBatch.ToRelation())
	if rowCtx.Res != vecCtx.Res {
		t.Fatalf("resources diverged: row %+v, columnar %+v", rowCtx.Res, vecCtx.Res)
	}
	// The II node is idle, so observed merge time is the zero-load service
	// time of exactly those resources.
	wantMerge := simclock.Time(sc.IINode.EstimateTime(rowCtx.Res))
	if row.MergeTime != wantMerge || vec.MergeTime != wantMerge {
		t.Fatalf("merge time: row %v, columnar %v, want %v for %+v", row.MergeTime, vec.MergeTime, wantMerge, rowCtx.Res)
	}
}

func TestQueryCrossSourceWithAggregationAndOrder(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.II.Query(`SELECT o.o_priority, SUM(l.l_price) AS total
		FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey
		WHERE o.o_amount > 8000
		GROUP BY o.o_priority ORDER BY o.o_priority`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Cardinality() == 0 || res.Rel.Cardinality() > 5 {
		t.Fatalf("groups: %d", res.Rel.Cardinality())
	}
	for i := 1; i < len(res.Rel.Rows); i++ {
		if res.Rel.Rows[i-1][0].Int() > res.Rel.Rows[i][0].Int() {
			t.Fatal("not ordered")
		}
	}
}

func TestQueryFailoverOnDownServer(t *testing.T) {
	sc := threeServer(t)
	// Compile once to find the preferred server, then take it down: the
	// retry path must land the query elsewhere.
	gp, err := sc.II.Compile("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000")
	if err != nil {
		t.Fatal(err)
	}
	preferred := gp.Fragments[0].ServerID
	sc.Servers[preferred].SetDown(true)
	res, err := sc.II.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fragments[0].ServerID == preferred {
		t.Fatal("query must avoid the down server")
	}
}

func TestQueryTransientFailureRetries(t *testing.T) {
	sc := threeServer(t)
	gp, err := sc.II.Compile("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	sc.Servers[gp.Fragments[0].ServerID].InjectFailures(1)
	res, err := sc.II.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried == 0 {
		t.Fatal("expected a retry")
	}
}

func TestQueryAllDownFailsAndLogsError(t *testing.T) {
	sc := threeServer(t)
	for _, s := range sc.Servers {
		s.SetDown(true)
	}
	_, err := sc.II.Query("SELECT COUNT(*) FROM parts AS p")
	if err == nil {
		t.Fatal("must fail")
	}
	log := sc.II.Journal().Queries()
	if len(log) != 1 || log[0].Err == "" {
		t.Fatalf("error must be logged: %+v", log)
	}
}

func TestQueryBadSQL(t *testing.T) {
	sc := threeServer(t)
	if _, err := sc.II.Query("SELEKT nothing"); err == nil {
		t.Fatal("bad SQL must fail")
	}
}

// TestMergeObserverReceivesPairs: a cross-source join's II merge reaches the
// journal once, on the query's record, carrying the plan's merge estimate
// and the observed merge time bit for bit.
func TestMergeObserverReceivesPairs(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.II.Query("SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000")
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeTime <= 0 || res.Plan.MergeEstMS <= 0 {
		t.Fatalf("merge time %v, merge estimate %v: want a plan with merge work", res.MergeTime, res.Plan.MergeEstMS)
	}
	rec, ok := sc.II.Journal().Record(res.ID)
	if !ok || len(rec.Merges) != 1 {
		t.Fatalf("record %d carries merges %+v", res.ID, rec.Merges)
	}
	if m := rec.Merges[0]; m.QueryID != res.ID || m.CalibratedEstMS != res.Plan.MergeEstMS || m.ObservedMS != float64(res.MergeTime) {
		t.Fatalf("merge entry %+v, want estimate %v and observed %v", m, res.Plan.MergeEstMS, res.MergeTime)
	}
	// A single-fragment plan has no merge work and records no merge.
	single, err := sc.II.Query("SELECT o.o_id FROM orders AS o WHERE o.o_amount > 9000")
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := sc.II.Journal().Record(single.ID); single.Plan.MergeEstMS != 0 || len(rec.Merges) != 0 {
		t.Fatalf("merge estimate %v, merges %+v: want a plan without merge work and no entry", single.Plan.MergeEstMS, rec.Merges)
	}
}

func TestRouterOverridesWinner(t *testing.T) {
	sc := threeServer(t)
	// Picking another plan from the ranking is router.Router's job;
	// here we exercise the hook with an identity pick and confirm the call
	// path and the turn it is handed.
	var turns []*integrator.Turn
	sc.II.SetRouter(routeFunc(func(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *integrator.Turn) *optimizer.GlobalPlan {
		turns = append(turns, turn)
		return ranked[0]
	}))
	const sql = "SELECT COUNT(*) FROM parts AS p"
	for i := 0; i < 2; i++ {
		if _, err := sc.II.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.II.Compile(sql); err != nil {
		t.Fatal(err)
	}
	// Cold and warm queries share the entry's turn; explain mode takes none.
	if len(turns) != 3 || turns[0] == nil || turns[1] != turns[0] || turns[2] != nil {
		t.Fatalf("turns handed to the router = %v, want the entry's twice, then nil", turns)
	}
}

// routeFunc adapts a compile-time pick to integrator.Router.
type routeFunc func(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *integrator.Turn) *optimizer.GlobalPlan

func (f routeFunc) ChooseGlobal(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *integrator.Turn) *optimizer.GlobalPlan {
	return f(ctx, ranked, turn)
}

func (routeFunc) RerouteFragment(context.Context, optimizer.FragmentChoice, []optimizer.FragmentChoice) *optimizer.FragmentChoice {
	return nil
}

func TestRetryMessageCountsRetries(t *testing.T) {
	sc := threeServer(t)
	// integrator.Retries (2): three consecutive attempt failures exhaust them.
	// Every server gets enough injected failures that re-optimization cannot
	// escape.
	for _, s := range sc.Servers {
		s.InjectFailures(3)
	}
	_, err := sc.II.Query("SELECT COUNT(*) FROM parts AS p")
	if err == nil {
		t.Fatal("expected failure after exhausted retries")
	}
	if !strings.Contains(err.Error(), "after 2 retries") {
		t.Fatalf("message must report the true retry count: %v", err)
	}
}

func TestQueryContextPreCancelled(t *testing.T) {
	sc := threeServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sc.II.QueryContext(ctx, "SELECT COUNT(*) FROM parts AS p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	log := sc.II.Journal().Queries()
	if len(log) != 1 || log[0].Err == "" {
		t.Fatalf("cancelled query must be logged with its error: %+v", log)
	}
	// The integrator must stay healthy for the next caller.
	if _, err := sc.II.Query("SELECT COUNT(*) FROM parts AS p"); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// selfMaskingWrapper masks its own server at the meta-wrapper from inside
// Explain once armed: a mask flip racing the collection of candidates.
type selfMaskingWrapper struct {
	wrapper.Wrapper
	mw    *metawrapper.MetaWrapper
	armed atomic.Bool
}

func (w *selfMaskingWrapper) Explain(stmt *sqlparser.SelectStmt, sql string) ([]wrapper.Candidate, error) {
	if w.armed.Swap(false) {
		w.mw.Mask(w.ServerID(), true)
	}
	return w.Wrapper.Explain(stmt, sql)
}

// TestPlanCacheMaskDuringCollectInvalidates masks the winner's server while
// its candidates are being collected. The entry that compile leaves must
// not look valid: the next compile counts a mask invalidation and routes
// around the masked server.
func TestPlanCacheMaskDuringCollectInvalidates(t *testing.T) {
	sc := threeServer(t)
	wrappers := map[string]*selfMaskingWrapper{}
	var all []wrapper.Wrapper
	for _, id := range sc.MW.Servers() {
		wrappers[id] = &selfMaskingWrapper{Wrapper: sc.MW.Wrapper(id)}
		all = append(all, wrappers[id])
	}
	mw := metawrapper.New(all...)
	for _, w := range wrappers {
		w.mw = mw
	}
	ii := integrator.New(integrator.Config{Catalog: sc.Catalog, MW: mw, Node: sc.IINode, Clock: sc.Clock})
	const q = "SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000"

	gp, err := ii.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	target := gp.Fragments[0].ServerID
	ii.ClearPlanCache()
	wrappers[target].armed.Store(true)
	if _, err := ii.Compile(q); err != nil {
		t.Fatal(err)
	}
	if !mw.Masked(target) {
		t.Fatalf("%s did not mask itself during Explain", target)
	}

	gp, err = ii.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := ii.PlanCacheStats(); s.Invalidations[integrator.InvalidateMask] != 1 || s.Hits != 0 {
		t.Fatalf("mask flipped during collection was not invalidated: %+v", s)
	}
	for _, f := range gp.Fragments {
		if f.ServerID == target {
			t.Fatalf("compile routed to %s, masked during the previous collection", target)
		}
	}
}

// pushdownFlippingWrapper turns the II's shard pushdown off from inside
// Explain once armed: a pushdown toggle racing the collection of candidates.
type pushdownFlippingWrapper struct {
	wrapper.Wrapper
	ii    *integrator.II
	armed atomic.Bool
}

func (w *pushdownFlippingWrapper) Explain(stmt *sqlparser.SelectStmt, sql string) ([]wrapper.Candidate, error) {
	if w.armed.Swap(false) {
		w.ii.SetShardPushdown(false)
	}
	return w.Wrapper.Explain(stmt, sql)
}

// TestPlanCachePushdownDuringCollectInvalidates turns shard pushdown off
// while a statement's candidates are being collected. The entry that compile
// leaves was decomposed with pushdown on, so the next compile must not serve
// it: it counts a "clear" invalidation and returns the ship-rows shape.
func TestPlanCachePushdownDuringCollectInvalidates(t *testing.T) {
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 2, Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	var wrappers []*pushdownFlippingWrapper
	var all []wrapper.Wrapper
	for _, id := range sc.MW.Servers() {
		w := &pushdownFlippingWrapper{Wrapper: sc.MW.Wrapper(id)}
		w.armed.Store(true)
		wrappers = append(wrappers, w)
		all = append(all, w)
	}
	ii := integrator.New(integrator.Config{Catalog: sc.Catalog, MW: metawrapper.New(all...), Node: sc.IINode, Clock: sc.Clock})
	for _, w := range wrappers {
		w.ii = ii
	}
	const q = "SELECT COUNT(*) FROM lineitem"

	gp, err := ii.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Decomp.Sharded == nil || gp.Decomp.Sharded.Partial == nil {
		t.Fatalf("the first compile collected before the toggle, so it must push down: %+v", gp.Decomp.Sharded)
	}
	if ii.ShardPushdown() {
		t.Fatal("no wrapper turned pushdown off during Explain")
	}

	gp, err = ii.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := ii.PlanCacheStats(); s.Invalidations[integrator.InvalidateClear] != 1 || s.Hits != 0 {
		t.Fatalf("pushdown toggled during collection was not invalidated: %+v", s)
	}
	if gp.Decomp.Sharded == nil || gp.Decomp.Sharded.Partial != nil {
		t.Fatalf("compile after the toggle returned the pushdown shape: %+v", gp.Decomp.Sharded)
	}
}

// TestPlanCacheUsesARecoveredServer compiles while the cheapest server
// cannot answer Explain — down, or its link partitioned — and requires that
// compilation to stay uncached, so that once the server answers again the
// next compile routes back to it and the one after is served warm.
func TestPlanCacheUsesARecoveredServer(t *testing.T) {
	const q = "SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000"
	for _, fault := range []string{"down", "partitioned"} {
		t.Run(fault, func(t *testing.T) {
			sc := threeServer(t)
			gp, err := sc.II.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			preferred := gp.Fragments[0].ServerID
			set := func(on bool) {
				if fault == "down" {
					sc.Servers[preferred].SetDown(on)
				} else {
					sc.Topo.Link(preferred).SetDown(on)
				}
			}
			sc.II.ClearPlanCache()
			set(true)
			gp, err = sc.II.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if gp.Fragments[0].ServerID == preferred {
				t.Fatalf("compile routed to %s while it was %s", preferred, fault)
			}
			if s := sc.II.PlanCacheStats(); s.Entries != 0 {
				t.Fatalf("a compile missing %s was cached: %+v", preferred, s)
			}

			set(false)
			gp, err = sc.II.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if gp.Fragments[0].ServerID != preferred {
				t.Fatalf("compile routed to %s after %s recovered", gp.Fragments[0].ServerID, preferred)
			}
			if _, err := sc.II.Compile(q); err != nil {
				t.Fatal(err)
			}
			if s := sc.II.PlanCacheStats(); s.Hits != 1 || s.Entries != 1 {
				t.Fatalf("compile after recovery was not cached: %+v", s)
			}
		})
	}
}
