package wrapper

import (
	"context"
	"errors"
	"testing"

	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/sqlparser"
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

// runMono executes a plan store-and-forward: one monolithic batch, drained.
func runMono(w Wrapper, plan *remote.Plan) (*StreamOutcome, error) {
	ctx := context.Background()
	st, err := w.Open(ctx, plan, 0)
	if err != nil {
		return nil, err
	}
	return Drain(ctx, st)
}

func TestRelationalExplainIncludesNetworkEstimate(t *testing.T) {
	s, topo := testSetup(t)
	w := NewRelational(s, topo)
	if w.Kind() != "relational" || w.ServerID() != "S1" {
		t.Fatal("identity")
	}
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p")
	cands, err := w.Explain(stmt)
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
	cands, err := w.Explain(stmt)
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
	cands, err := w.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	topo.Link("S1").SetDown(true)
	if _, err := w.Explain(stmt); err == nil {
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
	cands, err := w.Explain(stmt)
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
