package wrapper

import (
	"context"
	"errors"
	"testing"

	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

func testSetup(t *testing.T) (*remote.Server, *network.Topology) {
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
	topo.AddLink("S1", network.NewLink(network.LinkConfig{LatencyMS: 10, BandwidthKBps: 1000}))
	return s, topo
}

// runMono ships a plan store-and-forward: one monolithic batch.
func runMono(w Wrapper, plan *remote.Plan) (*StreamOutcome, error) {
	return w.Ship(context.Background(), plan, 0, func(*remote.Batch, simclock.Time) {})
}

func TestRelationalExplainIncludesNetworkEstimate(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	if w.Kind() != "relational" || w.ServerID() != "S1" {
		t.Fatal("identity")
	}
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := w.Explain(stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || !cands[0].CostKnown {
		t.Fatalf("candidates: %+v", cands)
	}
	// The wrapper estimate must exceed the bare server estimate (network).
	bare, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Plan.Est.TotalMS <= bare[0].Est.TotalMS-1e-9 {
		t.Fatalf("network estimate missing: wrapper %.2f, bare %.2f", cands[0].Plan.Est.TotalMS, bare[0].Est.TotalMS)
	}
}

func TestRelationalExecuteAddsTransferTime(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p WHERE p.p_id < 3")
	cands, err := w.Explain(stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	out, err := runMono(w, cands[0].Plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.RowCount() != 3 {
		t.Fatalf("rows: %d", out.Result.RowCount())
	}
	if out.ResponseTime <= out.Result.ServiceTime {
		t.Fatalf("response %v must exceed service %v", out.ResponseTime, out.Result.ServiceTime)
	}
}

func TestRelationalPartitionedLink(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	stmt := sqlparser.MustParse("SELECT * FROM parts LIMIT 1")
	cands, err := w.Explain(stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	topo.Link("S1").SetDown(true)
	if _, err := w.Explain(stmt, stmt.String()); err == nil {
		t.Fatal("explain over partition must fail")
	}
	_, err = runMono(w, cands[0].Plan)
	var pe *network.ErrPartitioned
	if !errors.As(err, &pe) {
		t.Fatalf("execute: want partition error, got %v", err)
	}
	if _, err := w.Probe(context.Background()); err == nil {
		t.Fatal("probe over partition must fail")
	}
}

func TestRelationalProbeReflectsServerState(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	pt, err := w.Probe(context.Background())
	if err != nil || pt <= 0 {
		t.Fatalf("probe: %v %v", pt, err)
	}
	s.SetDown(true)
	if _, err := w.Probe(context.Background()); err == nil {
		t.Fatal("down server probe must fail")
	}
}

func TestTableSchema(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	sch, err := w.TableSchema("orders")
	if err != nil || sch.Len() != 5 {
		t.Fatalf("schema: %v %v", sch, err)
	}
	if _, err := w.TableSchema("ghost"); err == nil {
		t.Fatal("unknown table")
	}
}

func TestFileWrapperNoCost(t *testing.T) {
	s, topo := testSetup(t)
	w := NewFile(s, topo)
	if w.Kind() != "file" {
		t.Fatal("kind")
	}
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p WHERE p.p_id = 3")
	cands, err := w.Explain(stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("file wrapper should return one candidate: %d", len(cands))
	}
	c := cands[0]
	if c.CostKnown {
		t.Fatal("file wrapper must not know cost")
	}
	if c.Plan.Est.TotalMS != 0 || c.Plan.Est.Card != 0 {
		t.Fatalf("estimate must be zeroed: %+v", c.Plan.Est)
	}
	out, err := runMono(w, c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.RowCount() != 1 {
		t.Fatalf("rows: %d", out.Result.RowCount())
	}
	if _, err := w.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TableSchema("parts"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TableSchema("nope"); err == nil {
		t.Fatal("unknown table")
	}
}

// slowLinkSetup is a 10k-row lineitem on one server behind a 20 ms, 50 KB/s
// link.
func slowLinkSetup(t *testing.T) (*remote.Server, *Relational) {
	t.Helper()
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
	return s, NewRelational(s, topo)
}

func explainFirst(t *testing.T, w Wrapper, sql string) *remote.Plan {
	t.Helper()
	stmt := sqlparser.MustParse(sql)
	cands, err := w.Explain(stmt, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	return cands[0].Plan
}

// batchRowsOf is one batch's rows, boxed.
func batchRowsOf(b *remote.Batch) *sqltypes.Relation { return b.Col.ToRelation() }

// TestShipHandsOverBatchesInArrivalOrder holds Ship to its contract: emit
// runs once per cursor batch, in cursor order, with arrival times that never
// decrease; the first arrival is the first-row time when pipelined (none
// when monolithic) and the last is the response time; and a context
// cancelled after batch k gets no batch k+1 and Ship's error is the
// context's.
func TestShipHandsOverBatchesInArrivalOrder(t *testing.T) {
	ctx := context.Background()
	s, w := slowLinkSetup(t)
	plan := explainFirst(t, w, "SELECT l.l_orderkey, l.l_price FROM lineitem AS l")
	for _, batchRows := range []int{256, 0} {
		cur, err := s.OpenPlan(ctx, plan, batchRows)
		if err != nil {
			t.Fatal(err)
		}
		var want []*sqltypes.Relation
		for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
			want = append(want, batchRowsOf(b))
		}
		var got []*sqltypes.Relation
		var arrivals []simclock.Time
		out, err := w.Ship(ctx, plan, batchRows, func(b *remote.Batch, at simclock.Time) {
			got = append(got, batchRowsOf(b))
			arrivals = append(arrivals, at)
		})
		if err != nil {
			t.Fatal(err)
		}
		if batchRows > 0 && len(want) < 10 {
			t.Fatalf("batchRows %d: the cursor yields %d batches; the test needs many", batchRows, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("batchRows %d: emit ran %d times over a cursor of %d batches", batchRows, len(got), len(want))
		}
		for k := range want {
			if len(got[k].Rows) != len(want[k].Rows) {
				t.Fatalf("batchRows %d: batch %d has %d rows, the cursor's %d", batchRows, k, len(got[k].Rows), len(want[k].Rows))
			}
			for r, row := range want[k].Rows {
				for c := range row {
					if got[k].Rows[r][c] != row[c] {
						t.Fatalf("batchRows %d: batch %d cell (%d,%d) is %v, the cursor's %v", batchRows, k, r, c, got[k].Rows[r][c], row[c])
					}
				}
			}
			if k > 0 && arrivals[k] < arrivals[k-1] {
				t.Fatalf("batchRows %d: batch %d arrived at %v, before batch %d at %v", batchRows, k, arrivals[k], k-1, arrivals[k-1])
			}
		}
		first := arrivals[0]
		if batchRows == 0 {
			first = 0
		}
		if out.FirstRowTime != first || out.ResponseTime != arrivals[len(arrivals)-1] {
			t.Fatalf("batchRows %d: first row %v and response %v; arrivals run from %v to %v", batchRows, out.FirstRowTime, out.ResponseTime, arrivals[0], arrivals[len(arrivals)-1])
		}
	}

	const k = 2
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := 0
	_, err := w.Ship(cctx, plan, 256, func(*remote.Batch, simclock.Time) {
		if n++; n == k+1 {
			cancel()
		}
	})
	if n != k+1 || err != cctx.Err() {
		t.Fatalf("cancelled after batch %d: emit ran %d times and Ship returned %v; want %d and %v", k, n, err, k+1, cctx.Err())
	}
}

// TestShipModeFollowsTheWireBytes: every shipment carries encoded bytes and
// no boxed rows, for a full and an empty result, pipelined or not, and its
// encoded bytes are the sum of its batches' measured sizes.
func TestShipModeFollowsTheWireBytes(t *testing.T) {
	ctx := context.Background()
	_, w := slowLinkSetup(t)
	for _, sql := range []string{
		"SELECT l.l_orderkey, l.l_price FROM lineitem AS l",
		"SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_qty < 0",
	} {
		plan := explainFirst(t, w, sql)
		for _, batchRows := range []int{256, 0} {
			rows, batches, measured := false, 0, 0
			out, err := w.Ship(ctx, plan, batchRows, func(b *remote.Batch, _ simclock.Time) {
				rows = rows || b.Rel != nil
				measured += b.Enc.WireBytes()
				batches++
			})
			if err != nil {
				t.Fatal(err)
			}
			if batches == 0 || out.WireBytes == 0 || out.WireBytes != measured || rows {
				t.Fatalf("%q, batchRows %d: %d batches, wire bytes %d of %d measured, a batch with boxed rows %v",
					sql, batchRows, batches, out.WireBytes, measured, rows)
			}
		}
	}
}
