package remote

import (
	"context"
	"testing"

	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// drainCursor collects the streamed batches' rows. On the columnar wire a
// batch carries no row form, so cells are read back from its columns.
func drainCursor(cur *Cursor) (*sqltypes.Relation, simclock.Time) {
	out := sqltypes.NewRelation(cur.Result().Col.Schema)
	var total simclock.Time
	for {
		b := cur.NextBatch()
		if b == nil {
			return out, total
		}
		out.Rows = append(out.Rows, b.Col.ToRelation().Rows...)
		total += b.ServiceTime
	}
}

func TestOpenPlanBatchesSumToServiceTime(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id < 150")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenPlan(context.Background(), plans[0], 32)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Blocking() != "" {
		t.Fatalf("scan plan must pipeline, got blocking=%q", cur.Blocking())
	}
	rel, sum := drainCursor(cur)
	res := cur.Result()
	whole := res.Col.ToRelation()
	if len(rel.Rows) != res.RowCount() {
		t.Fatalf("streamed %d rows, materialized %d", len(rel.Rows), res.RowCount())
	}
	wantBatches := (res.RowCount() + 31) / 32
	if cur.NumBatches() != wantBatches {
		t.Fatalf("batches: %d want %d", cur.NumBatches(), wantBatches)
	}
	if cur.NumBatches() < 2 {
		t.Fatalf("test needs a multi-batch result, got %d batches over %d rows", cur.NumBatches(), res.RowCount())
	}
	// The telescoping split must reproduce the full service time EXACTLY —
	// not within epsilon — so the monolithic and streamed virtual times agree.
	if sum != res.ServiceTime {
		t.Fatalf("batch service times sum to %v, plan service time %v", sum, res.ServiceTime)
	}
	// The first batch is available before the full result under the
	// first/next-tuple model.
	if cur.FirstReady() <= 0 || cur.FirstReady() >= res.ServiceTime {
		t.Fatalf("first ready %v not inside (0, %v)", cur.FirstReady(), res.ServiceTime)
	}
	// Row content matches the materialized result position by position.
	for i, row := range rel.Rows {
		if row[0].Int() != whole.Rows[i][0].Int() {
			t.Fatalf("row %d differs: %v vs %v", i, row, whole.Rows[i])
		}
	}
}

func TestOpenPlanZeroBatchRowsIsMonolithic(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id < 150")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenPlan(context.Background(), plans[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumBatches() != 1 {
		t.Fatalf("batchRows=0 must yield one batch, got %d", cur.NumBatches())
	}
	if cur.FirstReady() != cur.Result().ServiceTime {
		t.Fatal("monolithic cursor: first-ready must equal full service time")
	}
	b := cur.NextBatch()
	if b == nil || b.ServiceTime != cur.Result().ServiceTime {
		t.Fatalf("single batch must carry full service time: %+v", b)
	}
	if cur.NextBatch() != nil {
		t.Fatal("cursor must be exhausted after the single batch")
	}
}

func TestOpenPlanBlockingPlanCollapsesToOneBatch(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{"SELECT o.o_id FROM orders AS o WHERE o.o_id < 150 ORDER BY o.o_id DESC", "sort"},
		{"SELECT COUNT(*) FROM orders AS o", "aggregate"},
	} {
		stmt := sqlparser.MustParse(tc.sql)
		plans, err := s.Explain(stmt)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := s.OpenPlan(context.Background(), plans[0], 8)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Blocking() != tc.want {
			t.Fatalf("%s: blocking=%q want %q", tc.sql, cur.Blocking(), tc.want)
		}
		if cur.NumBatches() != 1 {
			t.Fatalf("%s: blocking plan must emit one batch, got %d", tc.sql, cur.NumBatches())
		}
	}
}

func TestOpenPlanFirstBatchCarriesFirstTupleCost(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id < 150")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenPlan(context.Background(), plans[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumBatches() < 3 {
		t.Fatalf("need >=3 batches, got %d", cur.NumBatches())
	}
	first := cur.NextBatch()
	second := cur.NextBatch()
	// Under c(h) = first + (total-first)·(h-1)/(n-1) the opening batch pays
	// the fixed first-tuple overhead; interior batches only their marginal
	// next-tuple share, so the first batch must cost strictly more.
	if first.ServiceTime <= second.ServiceTime {
		t.Fatalf("first batch (%v) must carry the first-tuple overhead above an interior batch (%v)",
			first.ServiceTime, second.ServiceTime)
	}
}
