package metawrapper

import (
	"context"
	"testing"

	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/wrapper"
)

type doublingCalibrator struct{}

func (doublingCalibrator) CalibrateFragment(key FragmentKey, est remote.CostEstimate, costKnown bool) remote.CostEstimate {
	est.TotalMS *= 2
	est.FirstTupleMS *= 2
	est.NextTupleMS *= 2
	return est
}

func newMW(t *testing.T) (*MetaWrapper, *remote.Server) {
	t.Helper()
	s := remote.NewServer(remote.ProfileS1("S1"))
	for _, g := range storage.SampleSchema(200) {
		tab, err := g.Generate(42)
		if err != nil {
			t.Fatal(err)
		}
		s.AddTable(tab)
	}
	topo := network.NewTopology()
	topo.AddLink("S1", network.NewLink(network.LinkConfig{LatencyMS: 5}))
	return New(wrapper.NewRelational(s, topo)), s
}

// runMono ships a plan store-and-forward: one monolithic batch.
func runMono(mw *MetaWrapper, serverID, fragSQL string, plan *remote.Plan, rawEst remote.CostEstimate) (*wrapper.Shipment, error) {
	return mw.OpenFragmentStream(context.Background(), serverID, fragSQL, plan, rawEst, 0)
}

// shippedRows counts the rows of a shipment's batches.
func shippedRows(sh *wrapper.Shipment) int {
	rows := 0
	for _, b := range sh.Batches {
		rows += b.Col.Len()
	}
	return rows
}

func ignoreBatch(*remote.Batch, simclock.Time) {}

func TestExplainRecordsAndCalibrates(t *testing.T) {
	mw, _ := newMW(t)
	mw.SetCalibrator(doublingCalibrator{})
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	compiles := mw.Journal().Candidates.Tail(0)
	if len(compiles) != len(cands) {
		t.Fatalf("candidate entries: %d vs %d candidates", len(compiles), len(cands))
	}
	rec := compiles[0]
	if rec.ServerID != "S1" || rec.Fragment != sqlparser.CanonicalizeSQL(stmt.String()) {
		t.Fatalf("key: %+v", rec)
	}
	if rec.CalibratedMS != rec.EstMS*2 {
		t.Fatalf("calibration not recorded: %+v", rec)
	}
	if cands[0].Plan.Est.TotalMS != rec.CalibratedMS {
		t.Fatal("integrator must see calibrated cost")
	}
}

func TestExplainWithoutQCCPassesThrough(t *testing.T) {
	mw, _ := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Plan.Est.TotalMS <= 0 {
		t.Fatal("uncalibrated estimate must pass through")
	}
}

// A monolithic stream (batchRows 0) is store-and-forward execution: MW records
// one run with the response time and no separate first-row observation.
func TestMonolithicStreamRecordsRun(t *testing.T) {
	mw, _ := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runMono(mw, "S1", stmt.String(), cands[0].Plan, cands[0].Plan.Est)
	if err != nil {
		t.Fatal(err)
	}
	if shippedRows(out) == 0 {
		t.Fatal("no rows")
	}
	runs := mw.Journal().Runs.Tail(0)
	if len(runs) != 1 {
		t.Fatalf("run entries: %d", len(runs))
	}
	if runs[0].ObservedMS != float64(out.ResponseTime) {
		t.Fatal("observed time mismatch")
	}
	if runs[0].FirstRowMS != 0 || out.FirstRowTime != 0 {
		t.Fatalf("monolithic run must carry no first-row observation: entry %v, outcome %v", runs[0].FirstRowMS, out.FirstRowTime)
	}
}

// A streamed shipment records its first row beside the first-tuple estimate
// it calibrates.
func TestStreamedRunRecordsFirstRow(t *testing.T) {
	mw, _ := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	key := FragmentKey{ServerID: "S1", Signature: sqlparser.CanonicalizeSQL(stmt.String())}
	out, err := mw.Ship(context.Background(), key, cands[0].Plan, cands[0].RawEst, 16, ignoreBatch)
	if err != nil {
		t.Fatal(err)
	}
	runs := mw.Journal().Runs.Tail(0)
	if len(runs) != 1 || out.FirstRowTime <= 0 {
		t.Fatalf("run entries %+v, first row %v", runs, out.FirstRowTime)
	}
	if r := runs[0]; r.FirstRowMS != float64(out.FirstRowTime) || r.FirstTupleEstMS != cands[0].RawEst.FirstTupleMS || r.EstMS != cands[0].RawEst.TotalMS {
		t.Fatalf("run entry %+v, want first row %v against raw estimate %+v", r, out.FirstRowTime, cands[0].RawEst)
	}
}

// The text entry points canonicalize once and delegate to the keyed ones, so
// a caller holding the signature (FragmentSpec.Sig) lands on the same records.
func TestKeyedEntryPointsShareRecordKey(t *testing.T) {
	mw, _ := newMW(t)
	ctx := context.Background()
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p WHERE p.p_id < 3")
	key := FragmentKey{ServerID: "S1", Signature: sqlparser.CanonicalizeSQL(stmt.String())}
	cands, err := mw.ExplainKeyed(ctx, key, stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.ExplainFragment("S1", stmt); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Ship(ctx, key, cands[0].Plan, cands[0].RawEst, 256, ignoreBatch); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.OpenFragmentStream(ctx, "S1", stmt.String(), cands[0].Plan, cands[0].RawEst, 256); err != nil {
		t.Fatal(err)
	}
	if _, err := runMono(mw, "S1", stmt.String(), cands[0].Plan, cands[0].RawEst); err != nil {
		t.Fatal(err)
	}
	runs, compiles := mw.Journal().Runs.Tail(0), mw.Journal().Candidates.Tail(0)
	if len(runs) != 3 || len(compiles) == 0 {
		t.Fatalf("entries: %d runs, %d candidates", len(runs), len(compiles))
	}
	for _, r := range runs {
		if (FragmentKey{ServerID: r.ServerID, Signature: r.Fragment}) != key {
			t.Errorf("run recorded under %s/%q, want %+v", r.ServerID, r.Fragment, key)
		}
	}
	for _, c := range compiles {
		if (FragmentKey{ServerID: c.ServerID, Signature: c.Fragment}) != key {
			t.Errorf("candidate recorded under %s/%q, want %+v", c.ServerID, c.Fragment, key)
		}
	}
}

func TestErrorsReported(t *testing.T) {
	mw, srv := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if _, err := runMono(mw, "S1", stmt.String(), cands[0].Plan, cands[0].Plan.Est); err == nil {
		t.Fatal("down server must fail")
	}
	if _, err := mw.ExplainFragment("S1", stmt); err == nil {
		t.Fatal("down server explain must fail")
	}
	// Both failures say the source is unavailable: the writer classifies them.
	errs := mw.Journal().Errors.Tail(0)
	if len(errs) != 2 || !errs[0].Down || !errs[1].Down {
		t.Fatalf("errors reported: %+v", errs)
	}
}

func TestMasking(t *testing.T) {
	mw, _ := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	mw.Mask("S1", true)
	if !mw.Masked("S1") {
		t.Fatal("mask state")
	}
	if _, err := mw.ExplainFragment("S1", stmt); err == nil {
		t.Fatal("masked server must not explain")
	}
	mw.Mask("S1", false)
	if _, err := mw.ExplainFragment("S1", stmt); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownServer(t *testing.T) {
	mw, _ := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	if _, err := mw.ExplainFragment("S9", stmt); err == nil {
		t.Fatal("unknown server explain")
	}
	if _, err := runMono(mw, "S9", "", nil, remote.CostEstimate{}); err == nil {
		t.Fatal("unknown server execute")
	}
	if _, err := mw.Probe(context.Background(), "S9"); err == nil {
		t.Fatal("unknown server probe")
	}
}

func TestProbeReportsToObserver(t *testing.T) {
	mw, srv := newMW(t)
	rtt, err := mw.Probe(context.Background(), "S1")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	if _, err := mw.Probe(context.Background(), "S1"); err == nil {
		t.Fatal("down probe must fail")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	mw.Probe(cancelled, "S1") //nolint:errcheck // a cancelled probe says nothing about the source
	probes := mw.Journal().Probes.Tail(0)
	if len(probes) != 2 {
		t.Fatalf("probe entries: %+v", probes)
	}
	if up, down := probes[0], probes[1]; up.ServerID != "S1" || up.RTTMS != float64(rtt) || up.Err != "" ||
		down.Err == "" || !down.Down || up.Seq != 1 || down.Seq != 2 {
		t.Fatalf("probe entries: %+v", probes)
	}
	if len(mw.Servers()) != 1 || mw.Servers()[0] != "S1" {
		t.Fatal("servers list")
	}
}

func TestMWLogsRecordCompileRunError(t *testing.T) {
	mw, srv := newMW(t)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p WHERE p.p_id < 4")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runMono(mw, "S1", stmt.String(), cands[0].Plan, cands[0].RawEst); err != nil {
		t.Fatal(err)
	}
	srv.SetDown(true)
	runMono(mw, "S1", stmt.String(), cands[0].Plan, cands[0].RawEst) //nolint:errcheck

	compiles := mw.Journal().Candidates.Tail(0)
	if len(compiles) == 0 {
		t.Fatal("compile log empty")
	}
	c := compiles[0]
	if c.ServerID != "S1" || c.EstMS <= 0 || !c.CostKnown {
		t.Fatalf("compile entry: %+v", c)
	}
	if c.Fragment != sqlparser.CanonicalizeSQL(stmt.String()) {
		t.Fatalf("fragment text: %q", c.Fragment)
	}
	runs := mw.Journal().Runs.Tail(0)
	if len(runs) != 1 || runs[0].ObservedMS <= 0 || runs[0].OutBytes <= 0 {
		t.Fatalf("run log: %+v", runs)
	}
	// A direct call belongs to no query and no dispatch; the ship mode is
	// still the stream's own observation.
	if runs[0].QueryID != 0 || runs[0].FragID != "" || runs[0].Ship != journal.ColShip {
		t.Fatalf("direct-call run entry: %+v", runs[0])
	}
	errs := mw.Journal().Errors.Tail(0)
	if len(errs) != 1 || errs[0].ServerID != "S1" || errs[0].Err == "" {
		t.Fatalf("error log: %+v", errs)
	}
}

// TestFragmentStreamBeatsStoreAndForward pins the pipelining win where it is
// produced: a 10k-row scan shipped over a 50 KB/s link finishes strictly
// sooner through OpenFragmentStream (production of batch k+1 overlaps the
// transfer of batch k) at 256 rows a batch than store-and-forward through the
// same stream at batchRows 0, with the same rows and a first row strictly
// inside the response.
func TestFragmentStreamBeatsStoreAndForward(t *testing.T) {
	ctx := context.Background()
	stmt := sqlparser.MustParse("SELECT l.l_orderkey, l.l_price FROM lineitem AS l")
	open := func() (*MetaWrapper, *remote.Plan) {
		s := remote.NewServer(remote.ProfileS2("S1"))
		for _, g := range storage.SampleSchema(10) {
			tab, err := g.Generate(7)
			if err != nil {
				t.Fatal(err)
			}
			s.AddTable(tab)
		}
		topo := network.NewTopology()
		topo.AddLink("S1", network.NewLink(network.LinkConfig{LatencyMS: 20, BandwidthKBps: 50}))
		mw := New(wrapper.NewRelational(s, topo))
		cands, err := mw.ExplainFragment("S1", stmt)
		if err != nil {
			t.Fatal(err)
		}
		return mw, cands[0].Plan
	}

	mw, plan := open()
	mono, err := runMono(mw, "S1", stmt.String(), plan, plan.Est)
	if err != nil {
		t.Fatal(err)
	}

	mw, plan = open()
	st, err := mw.OpenFragmentStream(ctx, "S1", stmt.String(), plan, plan.Est, 256)
	if err != nil {
		t.Fatal(err)
	}
	rows, batches := 0, 0
	for {
		b, err := st.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.Col.Len()
		batches++
	}
	out := st.StreamOutcome

	if rows < 10000 || rows != shippedRows(mono) {
		t.Fatalf("streamed %d rows, store-and-forward %d; scenario needs >=10k", rows, shippedRows(mono))
	}
	if batches < 2 {
		t.Fatalf("10k rows at 256 per batch arrived in %d batches", batches)
	}
	if out.ResponseTime >= mono.ResponseTime {
		t.Fatalf("streamed response %v must beat store-and-forward %v", out.ResponseTime, mono.ResponseTime)
	}
	if out.FirstRowTime <= 0 || out.FirstRowTime >= out.ResponseTime {
		t.Fatalf("first row %v must fall strictly inside (0, %v)", out.FirstRowTime, out.ResponseTime)
	}
}

// TestShipAllocatesNothingPerBatch: shipping a fragment through MW allocates
// what running its plan and reading its cursor does plus a constant, the same
// at 4 batches and at 40: nothing per batch (no second batch value, no
// closure, no stream state). Untraced, the constant is the outcome alone: no
// span attribute is formatted without a span.
func TestShipAllocatesNothingPerBatch(t *testing.T) {
	mw, s := newMW(t)
	ctx := context.Background()
	stmt := sqlparser.MustParse("SELECT l.l_orderkey, l.l_price FROM lineitem AS l")
	cands, err := mw.ExplainFragment("S1", stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan := cands[0].Plan
	key := fragmentKey("S1", stmt.String())
	cur, err := s.OpenPlan(ctx, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := cur.Result().RowCount()
	var extra, batches [2]float64
	for i, about := range []int{4, 40} {
		batchRows := (rows + about - 1) / about
		if cur, err = s.OpenPlan(ctx, plan, batchRows); err != nil {
			t.Fatal(err)
		}
		batches[i] = float64(cur.NumBatches())
		ship := testing.AllocsPerRun(50, func() {
			if _, err := mw.Ship(ctx, key, plan, cands[0].RawEst, batchRows, ignoreBatch); err != nil {
				t.Fatal(err)
			}
		})
		drain := testing.AllocsPerRun(50, func() {
			cur, err := s.OpenPlan(ctx, plan, batchRows)
			if err != nil {
				t.Fatal(err)
			}
			for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
			}
		})
		extra[i] = ship - drain
	}
	t.Logf("Ship allocates %v more at %v batches, %v more at %v", extra[0], batches[0], extra[1], batches[1])
	if batches[1] < 30 || extra[0] != extra[1] || extra[0] > 1 {
		t.Fatalf("Ship allocates %v more than running the plan and reading its cursor at %v batches, %v more at %v", extra[0], batches[0], extra[1], batches[1])
	}
}
