package qcc_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// runOn explains the statement on one server and executes the first plan
// offered store-and-forward (one monolithic batch), so MW hands QCC an
// (estimated, observed) pair for that server.
func runOn(sc *scenario.Scenario, server string, stmt *sqlparser.SelectStmt) error {
	cands, err := sc.MW.ExplainFragment(server, stmt)
	if err != nil {
		return err
	}
	_, err = sc.MW.OpenFragmentStream(context.Background(), server, stmt.String(), cands[0].Plan, cands[0].RawEst, 0)
	return err
}

func build(t *testing.T) (*scenario.Scenario, *qcc.QCC) {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock: sc.Clock,
		MW:    sc.MW,
	}, sc.II)
	return sc, q
}

const scanQuery = "SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100"

// cacheQuery is a QT2-shaped (small ⋈ large) query: the fast server's
// optimizer picks the cache-reliant index-nested-loop plan, which collapses
// under update load — the crossover QCC must learn.
const cacheQuery = "SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01"

func TestQCCLearnsLoadAndReroutes(t *testing.T) {
	sc, q := build(t)
	// Baseline: run the query a few times; note the preferred server.
	res, err := sc.II.Query(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	preferred := res.Plan.Fragments[0].ServerID
	// Load the preferred server heavily; execute so QCC observes the gap.
	sc.Servers[preferred].SetLoadLevel(1)
	for i := 0; i < 3; i++ {
		if _, err := sc.II.Query(cacheQuery); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	if f := q.Calib.ServerFactor(preferred); f <= 1.1 {
		t.Fatalf("factor for loaded server must rise: %g", f)
	}
	res, err = sc.II.Query(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Fragments[0].ServerID; got == preferred {
		t.Fatalf("query must reroute away from loaded %s", preferred)
	}
}

func TestQCCFactorsTrackLoadChanges(t *testing.T) {
	sc, q := build(t)
	if _, err := sc.II.Query(scanQuery); err != nil {
		t.Fatal(err)
	}
	res, _ := sc.II.Query(scanQuery)
	server := res.Plan.Fragments[0].ServerID
	sc.Servers[server].SetLoadLevel(1)
	for i := 0; i < 3; i++ {
		sc.II.Query(scanQuery) //nolint:errcheck
	}
	q.PublishNow()
	loadedFactor := q.Calib.ServerFactor(server)
	// Load clears; observations age out as the clock advances and new calm
	// observations arrive (after rerouting, force execution on the same
	// server via direct wrapper runs).
	sc.Servers[server].SetLoadLevel(0)
	stmt := sqlparser.MustParse(scanQuery)
	for i := 0; i < 6; i++ {
		if err := runOn(sc, server, stmt); err != nil {
			t.Fatal(err)
		}
		sc.Clock.Advance(10)
	}
	q.PublishNow()
	calmFactor := q.Calib.ServerFactor(server)
	if calmFactor >= loadedFactor {
		t.Fatalf("factor must fall when load clears: %g -> %g", loadedFactor, calmFactor)
	}
}

func TestQCCAvailabilityFencesDownServer(t *testing.T) {
	sc, q := build(t)
	res, err := sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	preferred := res.Plan.Fragments[0].ServerID
	sc.Servers[preferred].SetDown(true)
	q.ProbeNow()
	if !q.Avail.IsDown(preferred) {
		t.Fatal("probe must detect the down server")
	}
	// Calibrated cost for the fenced server is infinite.
	est := q.CalibrateFragment(metawrapper.FragmentKey{ServerID: preferred, Signature: "x"}, remote.CostEstimate{TotalMS: 10}, true)
	if !math.IsInf(est.TotalMS, 1) {
		t.Fatalf("fenced cost: %v", est.TotalMS)
	}
	// Queries keep working via the other servers, without retries: compile
	// already avoids the fenced server.
	res, err = sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fragments[0].ServerID == preferred {
		t.Fatal("fenced server must not be routed to")
	}
	if res.Retried != 0 {
		t.Fatalf("fencing should avoid retries, got %d", res.Retried)
	}
	// Recovery: probe restores the server.
	sc.Servers[preferred].SetDown(false)
	q.ProbeNow()
	if q.Avail.IsDown(preferred) {
		t.Fatal("probe must restore the server")
	}
	if q.Avail.DownEvents(preferred) != 1 {
		t.Fatalf("down events: %d", q.Avail.DownEvents(preferred))
	}
}

func TestQCCReliabilitySteersAwayFromFlakyServer(t *testing.T) {
	sc, q := build(t)
	res, err := sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	flaky := res.Plan.Fragments[0].ServerID
	// Fail a burst of runs on the flaky server (transient failures, not
	// down): reliability factor rises, availability stays up.
	stmt := sqlparser.MustParse(scanQuery)
	for i := 0; i < 10; i++ {
		sc.Servers[flaky].InjectFailures(1)
		runOn(sc, flaky, stmt) //nolint:errcheck // the injected failure is the point
	}
	if q.Avail.IsDown(flaky) {
		t.Fatal("transient failures must not mark the server down")
	}
	if f := q.Rel.Factor(flaky); f <= 1.5 {
		t.Fatalf("reliability factor must rise: %g", f)
	}
	res, err = sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fragments[0].ServerID == flaky {
		t.Fatal("fast but unreliable server must be avoided when alternatives exist")
	}
}

func TestQCCDynamicCycleAdapts(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock: sc.Clock,
		MW:    sc.MW,
		Cycle: qcc.CycleConfig{Initial: 100},
	}, sc.II)
	// Quiet period: intervals should grow.
	sc.Clock.Advance(2000)
	ivs := q.Cycle.Intervals()
	if len(ivs) < 2 || ivs[len(ivs)-1] <= ivs[0] {
		t.Fatalf("quiet period must slow the cycle: %v", ivs)
	}
	// A load spike with fresh observations should speed it back up.
	res, err := sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	server := res.Plan.Fragments[0].ServerID
	sc.Servers[server].SetLoadLevel(1)
	stmt := sqlparser.MustParse(scanQuery)
	before := q.Cycle.Interval()
	for i := 0; i < 4; i++ {
		if err := runOn(sc, server, stmt); err != nil {
			t.Fatal(err)
		}
		sc.Clock.Advance(before * 3 / 2)
	}
	// The controller may relax again once the factor stabilizes; what
	// matters is that the spike triggered at least one speed-up.
	spedUp := false
	for _, iv := range q.Cycle.Intervals() {
		if iv < before {
			spedUp = true
		}
	}
	if !spedUp {
		t.Fatalf("load spike must speed the cycle at least once: before=%v history=%v", before, q.Cycle.Intervals())
	}
}

func TestQCCStatsCounters(t *testing.T) {
	sc, q := build(t)
	if _, err := sc.II.Query(scanQuery); err != nil {
		t.Fatal(err)
	}
	st := q.StatsSnapshot()
	if st.Compiles == 0 || st.Runs == 0 {
		t.Fatalf("counters: c=%d r=%d", st.Compiles, st.Runs)
	}
	if st.Errors != 0 {
		t.Fatalf("unexpected errors: %d", st.Errors)
	}
}

func TestQCCDetach(t *testing.T) {
	sc, q := build(t)
	q.Detach()
	// Without QCC, queries still work.
	if _, err := sc.II.Query(scanQuery); err != nil {
		t.Fatal(err)
	}
	if runs := q.StatsSnapshot().Runs; runs != 0 {
		t.Fatalf("detached QCC must not observe: %d", runs)
	}
}

// TestDetachedQCCLearnsNothing: once detached, QCC's factors stay where the
// last publish left them, whatever the federation goes on to run: merges
// included, which used to reach it through a hook Detach left installed.
func TestDetachedQCCLearnsNothing(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{Clock: sc.Clock, MW: sc.MW, DisableDaemons: true}, sc.II)
	q.PublishNow()
	q.Detach()
	for i := 0; i < 8; i++ {
		if _, err := sc.II.Query("SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000"); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	if f := q.Calib.IIFactor(); f != 1 {
		t.Errorf("detached QCC learned an II factor of %v from later merges", f)
	}
	for _, id := range sc.MW.Servers() {
		if f := q.Calib.ServerFactor(id); f != 1 {
			t.Errorf("detached QCC learned a factor of %v for %s", f, id)
		}
	}
	if st := q.StatsSnapshot(); st != (qcc.Stats{}) {
		t.Errorf("detached QCC counted %+v", st)
	}
}

func TestSimulatedFederationEnumeratesWithoutExecution(t *testing.T) {
	sc, q := build(t)
	sf, err := qcc.NewSimulatedFederation(sc.Servers, sc.Topo, sc.Catalog, sc.IINode, q)
	if err != nil {
		t.Fatal(err)
	}
	for id, vs := range sf.Servers {
		if vs.Table("orders") == nil {
			t.Fatalf("server %s has no orders shell", id)
		}
		v := vs.Table("orders").View()
		virtual, rows := v.IsVirtual(), v.RowCount()
		v.Close()
		if !virtual {
			t.Fatalf("server %s tables must be virtual", id)
		}
		if rows != 0 {
			t.Fatal("virtual tables must hold no rows")
		}
	}
	stmt := sqlparser.MustParse(scanQuery)
	plans, err := sf.Enumerate(stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("expected plans from all three servers: %d", len(plans))
	}
	for _, s := range sc.Servers {
		if s.Executed() != 0 {
			t.Fatal("what-if must not execute on real servers")
		}
	}
	// Virtual estimates approximate real estimates.
	realPlans, err := sc.II.Optimizer().Enumerate(stmt, optimizer.DecomposeOpts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plans[0].TotalEstMS-realPlans[0].TotalEstMS) > realPlans[0].TotalEstMS*0.25 {
		t.Fatalf("virtual estimate drifted: %g vs %g", plans[0].TotalEstMS, realPlans[0].TotalEstMS)
	}
}

func TestEnumerateByMaskingCoversCombinations(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{Clock: sc.Clock, MW: sc.MW}, sc.II)
	sf, err := qcc.NewSimulatedFederation(sc.Servers, sc.Topo, sc.Catalog, sc.IINode, q)
	if err != nil {
		t.Fatal(err)
	}
	stmt := sqlparser.MustParse("SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500")
	plans, runs, err := sf.EnumerateByMasking(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's trick: 2 servers per fragment × 2 fragments = 4 explain
	// runs, one winner each.
	if runs != 4 {
		t.Fatalf("explain runs: %d want 4", runs)
	}
	if len(plans) != 4 {
		t.Fatalf("winners: %d want 4", len(plans))
	}
	sets := map[string]bool{}
	for _, p := range plans {
		sets[p.ServerSetKey()] = true
		if !strings.Contains(p.RouteKey(), "QF1@") {
			t.Fatalf("route key: %s", p.RouteKey())
		}
	}
	if len(sets) != 4 {
		t.Fatalf("server sets: %v", sets)
	}
	// Masks must be restored.
	for _, id := range sf.MW.Servers() {
		if sf.MW.Masked(id) {
			t.Fatalf("mask leaked on %s", id)
		}
	}
}

func TestIIWorkloadFactorFromCrossSourceMerges(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{Clock: sc.Clock, MW: sc.MW, DisableDaemons: true}, sc.II)
	// Load the II node itself: its merge work inflates beyond the estimate.
	sc.IINode.SetLoadLevel(1)
	const xq = "SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 2000"
	for i := 0; i < 3; i++ {
		if _, err := sc.II.Query(xq); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	if f := q.Calib.IIFactor(); f <= 1.05 {
		t.Fatalf("II workload factor must rise under integrator load: %g", f)
	}
	// The factor scales merge estimates in future compilations.
	if got := q.CalibrateII(10); got <= 10 {
		t.Fatalf("CalibrateII: %g", got)
	}
}

func TestFixedCycleNeverAdapts(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock: sc.Clock,
		MW:    sc.MW,
		Cycle: qcc.CycleConfig{Initial: 100, Fixed: true},
	}, sc.II)
	sc.Clock.Advance(1500)
	for _, iv := range q.Cycle.Intervals() {
		if iv != 100 {
			t.Fatalf("fixed cycle drifted: %v", q.Cycle.Intervals())
		}
	}
	if len(q.Cycle.Intervals()) < 10 {
		t.Fatalf("publishes: %d", len(q.Cycle.Intervals()))
	}
}

// TestCycleHistoryIsBounded: the interval history keeps one entry per
// publish, the newest ring.Entries of them, however long the daemons run.
func TestCycleHistoryIsBounded(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock:        sc.Clock,
		MW:           sc.MW,
		Availability: qcc.AvailabilityConfig{ProbeInterval: 1e9}, // publishes only
		Cycle:        qcc.CycleConfig{Initial: 100, Fixed: true},
	}, sc.II)
	sc.Clock.Advance(100 * (ring.Entries + 100))
	ivs := q.Cycle.Intervals()
	if len(ivs) != ring.Entries {
		t.Fatalf("retained %d intervals after %d publishes, want %d", len(ivs), q.Calib.Publishes(), ring.Entries)
	}
	if q.Calib.Publishes() <= ring.Entries {
		t.Fatalf("only %d publishes", q.Calib.Publishes())
	}
	if ivs[len(ivs)-1] != q.Cycle.Interval() {
		t.Fatalf("newest interval %v, current %v", ivs[len(ivs)-1], q.Cycle.Interval())
	}
}

// TestFlappingNetworkAdaptation drives a time-varying congestion schedule on
// the preferred server's link with QCC's daemons live: probes feed the
// probe-derived factor, the dynamic cycle publishes, and routing follows the
// network weather in both directions.
func TestFlappingNetworkAdaptation(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock:        sc.Clock,
		MW:           sc.MW,
		Availability: qcc.AvailabilityConfig{ProbeInterval: 50},
		Cycle:        qcc.CycleConfig{Initial: 100},
	}, sc.II)
	_ = q
	res, err := sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	preferred := res.Plan.Fragments[0].ServerID

	// Congestion rises at t+100ms and clears at t+2000ms.
	link := sc.Topo.Link(preferred)
	sc.Clock.ScheduleAfter(100, func(simclock.Time) { link.SetCongestion(20) })
	sc.Clock.ScheduleAfter(2000, func(simclock.Time) { link.SetCongestion(1) })
	// Let probes observe the congested link.
	sc.Clock.Advance(600)
	res, err = sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fragments[0].ServerID == preferred {
		t.Fatalf("should route around the congested link (factor %.2f)",
			q.Calib.ServerFactor(preferred))
	}
	// After the congestion clears and probes re-observe, the preferred
	// server becomes attractive again.
	sc.Clock.Advance(2500)
	res, err = sc.II.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fragments[0].ServerID != preferred {
		t.Fatalf("should return to %s after congestion clears (factor %.2f)",
			preferred, q.Calib.ServerFactor(preferred))
	}
}

func TestSimulatedFederationStatsAreASnapshot(t *testing.T) {
	sc, q := build(t)
	sf, err := qcc.NewSimulatedFederation(sc.Servers, sc.Topo, sc.Catalog, sc.IINode, q)
	if err != nil {
		t.Fatal(err)
	}
	maxAmountSeen := func() sqltypes.Value {
		v := sf.Servers["S1"].Table("orders").View()
		defer v.Close()
		return v.Stats().Column("o_amount").Max
	}
	before := maxAmountSeen()
	// Drift the real statistics well past the old max.
	if err := sc.Servers["S1"].Table("orders").UpdateAt(0, 2, sqltypes.NewFloat(999999)); err != nil {
		t.Fatal(err)
	}
	if got := maxAmountSeen(); got.Float() != before.Float() {
		t.Fatal("virtual stats must be a snapshot")
	}
}
