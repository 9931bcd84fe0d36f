package remote

import (
	"context"
	"testing"

	"repro/internal/sqlparser"
)

// shippedWireBytes executes the cheapest plan over the columnar wire at the
// integrator's batch size and returns its estimate and the bytes shipped.
func shippedWireBytes(t *testing.T, s *Server, sql string) (est, shipped int) {
	t.Helper()
	plans, err := s.Explain(sqlparser.MustParse(sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	cur, err := s.OpenPlan(context.Background(), plans[0], 256)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
		if b.Enc == nil {
			t.Fatalf("%s: batch did not take the columnar wire", sql)
		}
		shipped += b.Enc.WireBytes()
	}
	return plans[0].Est.OutBytes, shipped
}

// A projection is priced at what it ships: * keeps its input's width, a bare
// column its encoded width from the statistics, so the estimates of narrower
// select lists over one table are ordered and each is within 2x of the bytes
// the columnar wire really carries. (PROJECT * used to count as one 12-byte
// item and a two-column list as 24 bytes a row.)
func TestProjectionEstimateTracksTheWire(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	for _, table := range []struct{ name, pred string }{
		{"lineitem AS t", ""},
		{"lineitem AS t", " WHERE t.l_qty < 10"},
		{"orders AS t", ""},
		{"customer AS t", ""},
	} {
		lists := map[string][]string{
			"lineitem AS t": {"*", "t.l_orderkey, t.l_price, t.l_tag", "t.l_orderkey, t.l_tag", "t.l_tag"},
			"orders AS t":   {"*", "t.o_id, t.o_amount, t.o_priority", "t.o_id, t.o_priority", "t.o_id"},
			"customer AS t": {"*", "t.c_id, t.c_segment", "t.c_segment"},
		}[table.name]
		prev := -1
		for _, list := range lists {
			sql := "SELECT " + list + " FROM " + table.name + table.pred
			est, shipped := shippedWireBytes(t, s, sql)
			if est > 2*shipped || shipped > 2*est {
				t.Errorf("%s: estimated %d B, the wire shipped %d B: not within 2x", sql, est, shipped)
			}
			if prev >= 0 && est >= prev {
				t.Errorf("%s: estimated %d B, not below the wider list's %d B", sql, est, prev)
			}
			prev = est
		}
	}
	// The spelling does not change the price: an unqualified column resolves to
	// the same base-table column.
	for _, pair := range [][2]string{
		{"SELECT t.l_orderkey, t.l_tag FROM lineitem AS t", "SELECT l_orderkey, l_tag FROM lineitem AS t"},
		{"SELECT o.o_id, l.l_qty FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey",
			"SELECT o_id, l_qty FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey"},
	} {
		qualified, _ := shippedWireBytes(t, s, pair[0])
		if bare, _ := shippedWireBytes(t, s, pair[1]); bare != qualified {
			t.Errorf("%s: estimated %d B, the qualified spelling %d B", pair[1], bare, qualified)
		}
	}
}

// Plans that project aggregates only are priced as before: every item of an
// aggregation's output is a computed column at the row-model 12 bytes.
func TestAggregateProjectionEstimateUnchanged(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	for _, sql := range []string{
		"SELECT o.o_priority, COUNT(*), SUM(o.o_amount) FROM orders AS o GROUP BY o.o_priority",
		"SELECT o_priority, COUNT(*), SUM(o_amount) FROM orders AS o GROUP BY o_priority",
	} {
		plans, err := s.Explain(sqlparser.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if want := int(float64(p.Est.Card) * (3*12 + 4)); p.Est.OutBytes != want {
				t.Errorf("%s: OutBytes %d, want %d (3 computed columns at 12 B + 4)", p.Signature, p.Est.OutBytes, want)
			}
		}
	}
}

// An unqualified GROUP BY column is priced from its statistics, as its
// qualified spelling is: the group estimate is the column's distinct count,
// not one group per input row.
func TestUnqualifiedGroupByUsesColumnStatistics(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	v := s.Table("lineitem").View()
	distinct := v.Stats().Column("l_tag").Distinct
	v.Close()
	for _, sql := range []string{
		"SELECT l_tag, COUNT(*) FROM lineitem GROUP BY l_tag",
		"SELECT l_tag, COUNT(*) FROM lineitem AS t GROUP BY l_tag",
		"SELECT t.l_tag, COUNT(*) FROM lineitem AS t GROUP BY t.l_tag",
	} {
		plans, err := s.Explain(sqlparser.MustParse(sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := plans[0].Est.Card; got != distinct {
			t.Errorf("%s: estimated %d groups, l_tag has %d distinct values", sql, got, distinct)
		}
	}
}
