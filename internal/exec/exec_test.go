package exec

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// fixtures

func ordersTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "orders", Name: "o_id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "orders", Name: "o_custkey", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "orders", Name: "o_amount", Type: sqltypes.KindFloat},
	)
	tab := storage.NewTable("orders", schema)
	var rows []sqltypes.Row
	for i := 0; i < n; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i % 10)),
			sqltypes.NewFloat(float64(i) * 2),
		})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("orders_pk", "o_id", storage.IndexSorted); err != nil {
		t.Fatal(err)
	}
	return tab
}

// indexOn returns tab's index on column (a sorted one before a hash one).
func indexOn(tab *storage.Table, column string) *storage.Index {
	v := tab.View()
	defer v.Close()
	return storage.IndexOnColumn(v.Indexes(), column)
}

func custTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "customer", Name: "c_id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "customer", Name: "c_name", Type: sqltypes.KindString},
	)
	tab := storage.NewTable("customer", schema)
	var rows []sqltypes.Row
	for i := 0; i < n; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("cust" + string(rune('A'+i%26))),
		})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func run(t *testing.T, op Operator) (*sqltypes.Relation, Resources) {
	t.Helper()
	ctx := &Context{}
	rel, err := op.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ctx.Res
}

func TestSeqScanChargesIO(t *testing.T) {
	tab := ordersTable(t, 500)
	rel, res := run(t, &SeqScan{Table: tab, As: "o"})
	if rel.Cardinality() != 500 {
		t.Fatalf("rows: %d", rel.Cardinality())
	}
	if res.IOPages < 1 {
		t.Fatalf("seq scan must charge IO pages: %+v", res)
	}
	if res.CachedPages != 0 {
		t.Fatalf("seq scan should not charge cached pages: %+v", res)
	}
	if rel.Schema.Columns[0].Table != "o" {
		t.Fatalf("alias not applied: %v", rel.Schema)
	}
}

func TestIndexScanEqAndRange(t *testing.T) {
	tab := ordersTable(t, 500)
	idx := indexOn(tab, "o_id")
	v := sqltypes.NewInt(42)
	rel, res := run(t, &IndexScan{Table: tab, Index: idx, Probe: IndexProbe{Eq: &v}})
	if rel.Cardinality() != 1 || rel.Rows[0][0].Int() != 42 {
		t.Fatalf("eq probe: %v", rel)
	}
	if res.CachedPages <= 0 {
		t.Fatalf("index scan must charge cached pages: %+v", res)
	}
	if res.IOPages != 0 {
		t.Fatalf("index scan should not charge sequential IO: %+v", res)
	}
	lo, hi := sqltypes.NewInt(10), sqltypes.NewInt(19)
	rel, _ = run(t, &IndexScan{Table: tab, Index: idx, Probe: IndexProbe{Lo: &lo, Hi: &hi, LoInclusive: true, HiInclusive: true}})
	if rel.Cardinality() != 10 {
		t.Fatalf("range probe: %d", rel.Cardinality())
	}
}

func TestIndexScanHashRangeFails(t *testing.T) {
	tab := ordersTable(t, 10)
	if _, err := tab.CreateIndex("h", "o_custkey", storage.IndexHash); err != nil {
		t.Fatal(err)
	}
	lo := sqltypes.NewInt(1)
	op := &IndexScan{Table: tab, Index: indexOn(tab, "o_custkey"), Probe: IndexProbe{Lo: &lo}}
	if _, err := op.Execute(&Context{}); err == nil {
		t.Fatal("hash range probe must error")
	}
}

func TestFilterAndProject(t *testing.T) {
	tab := ordersTable(t, 100)
	pred, _ := sqlparser.ParseExpr("o.o_id >= 90")
	items := []sqlparser.SelectItem{
		{Expr: &sqlparser.ColumnRef{Table: "o", Name: "o_id"}},
		{Expr: mustExpr(t, "o.o_amount * 2"), Alias: "dbl"},
	}
	op := &Project{Input: &Filter{Input: &SeqScan{Table: tab, As: "o"}, Pred: pred}, Items: items}
	rel, _ := run(t, op)
	if rel.Cardinality() != 10 {
		t.Fatalf("filtered rows: %d", rel.Cardinality())
	}
	if rel.Schema.Columns[1].Name != "dbl" {
		t.Fatalf("projection alias: %v", rel.Schema)
	}
	// An unaliased reference keeps its qualifier, so o.o_id still resolves
	// above the projection (the integrator joins projected fragments on it);
	// an aliased or computed item has none. Both engines agree.
	vec, err := ExecuteVectorized(op, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	for _, schema := range []*sqltypes.Schema{op.Schema(), rel.Schema, vec.Schema} {
		if c := schema.Columns; c[0].Table != "o" || c[0].Name != "o_id" || c[1].Table != "" {
			t.Fatalf("projected qualifiers: %v", schema)
		}
		if _, err := schema.ColumnIndex("o", "o_id"); err != nil {
			t.Fatal(err)
		}
	}
	if rel.Rows[0][1].Float() != rel.Rows[0][0].Float()*4 {
		t.Fatalf("computed column wrong: %v", rel.Rows[0])
	}
}

func mustExpr(t *testing.T, src string) sqlparser.Expr {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHashJoin(t *testing.T) {
	orders := ordersTable(t, 100)
	cust := custTable(t, 10)
	j := &HashJoin{
		Build:    &SeqScan{Table: cust, As: "c"},
		Probe:    &SeqScan{Table: orders, As: "o"},
		BuildKey: mustExpr(t, "c.c_id"),
		ProbeKey: mustExpr(t, "o.o_custkey"),
	}
	rel, _ := run(t, j)
	if rel.Cardinality() != 100 {
		t.Fatalf("join rows: %d", rel.Cardinality())
	}
	if rel.Schema.Len() != 5 {
		t.Fatalf("join schema: %v", rel.Schema)
	}
	// verify keys match on a sample
	ci, _ := rel.Schema.ColumnIndex("c", "c_id")
	oi, _ := rel.Schema.ColumnIndex("o", "o_custkey")
	for _, row := range rel.Rows[:10] {
		if row[ci].Int() != row[oi].Int() {
			t.Fatalf("mismatched join row: %v", row)
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	orders := ordersTable(t, 100)
	cust := custTable(t, 10)
	j := &HashJoin{
		Build:    &SeqScan{Table: cust, As: "c"},
		Probe:    &SeqScan{Table: orders, As: "o"},
		BuildKey: mustExpr(t, "c.c_id"),
		ProbeKey: mustExpr(t, "o.o_custkey"),
		Residual: mustExpr(t, "o.o_amount > 100"),
	}
	rel, _ := run(t, j)
	ai, _ := rel.Schema.ColumnIndex("o", "o_amount")
	for _, row := range rel.Rows {
		if row[ai].Float() <= 100 {
			t.Fatalf("residual not applied: %v", row)
		}
	}
}

func TestNestedLoopJoinCross(t *testing.T) {
	a := custTable(t, 3)
	b := custTable(t, 4)
	j := &NestedLoopJoin{Outer: &SeqScan{Table: a, As: "a"}, Inner: &SeqScan{Table: b, As: "b"}}
	rel, res := run(t, j)
	if rel.Cardinality() != 12 {
		t.Fatalf("cross: %d", rel.Cardinality())
	}
	if res.CPUOps < 12 {
		t.Fatalf("nl join cpu: %+v", res)
	}
}

func TestAggregateGrouped(t *testing.T) {
	tab := ordersTable(t, 100)
	agg := &Aggregate{
		Input:   &SeqScan{Table: tab, As: "o"},
		GroupBy: []sqlparser.Expr{mustExpr(t, "o.o_custkey")},
		Aggs: []*sqlparser.AggExpr{
			{Func: sqlparser.AggCount},
			{Func: sqlparser.AggSum, Arg: mustExpr(t, "o.o_amount")},
			{Func: sqlparser.AggMin, Arg: mustExpr(t, "o.o_id")},
			{Func: sqlparser.AggMax, Arg: mustExpr(t, "o.o_id")},
			{Func: sqlparser.AggAvg, Arg: mustExpr(t, "o.o_id")},
		},
	}
	rel, _ := run(t, agg)
	if rel.Cardinality() != 10 {
		t.Fatalf("groups: %d", rel.Cardinality())
	}
	for _, row := range rel.Rows {
		if row[1].Int() != 10 { // count per group
			t.Fatalf("count: %v", row)
		}
		if row[4].Int() != row[3].Int()+90 { // max = min + 90 for stride-10 groups
			t.Fatalf("min/max: %v", row)
		}
		if row[5].Float() != (row[3].Float()+row[4].Float())/2 { // avg of arithmetic series
			t.Fatalf("avg: %v", row)
		}
	}
}

func TestAggregateScalarEmptyInput(t *testing.T) {
	tab := ordersTable(t, 0)
	agg := &Aggregate{
		Input: &SeqScan{Table: tab, As: "o"},
		Aggs: []*sqlparser.AggExpr{
			{Func: sqlparser.AggCount},
			{Func: sqlparser.AggSum, Arg: mustExpr(t, "o.o_amount")},
			{Func: sqlparser.AggAvg, Arg: mustExpr(t, "o.o_amount")},
		},
	}
	rel, _ := run(t, agg)
	if rel.Cardinality() != 1 {
		t.Fatalf("scalar agg over empty input must yield 1 row, got %d", rel.Cardinality())
	}
	if rel.Rows[0][0].Int() != 0 {
		t.Fatalf("COUNT(*) over empty: %v", rel.Rows[0])
	}
	if !rel.Rows[0][1].IsNull() || !rel.Rows[0][2].IsNull() {
		t.Fatalf("SUM/AVG over empty must be NULL: %v", rel.Rows[0])
	}
}

func TestAggregateNullsIgnored(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindInt})
	rel := sqltypes.NewRelation(schema)
	rel.Rows = []sqltypes.Row{{sqltypes.NewInt(2)}, {sqltypes.Null}, {sqltypes.NewInt(4)}}
	agg := &Aggregate{
		Input: &Values{Rel: rel},
		Aggs: []*sqlparser.AggExpr{
			{Func: sqlparser.AggCount, Arg: mustExpr(t, "t.v")},
			{Func: sqlparser.AggCount},
			{Func: sqlparser.AggSum, Arg: mustExpr(t, "t.v")},
			{Func: sqlparser.AggAvg, Arg: mustExpr(t, "t.v")},
		},
	}
	out, _ := run(t, agg)
	row := out.Rows[0]
	if row[0].Int() != 2 {
		t.Fatalf("COUNT(v) must skip NULL: %v", row)
	}
	if row[1].Int() != 3 {
		t.Fatalf("COUNT(*) counts all: %v", row)
	}
	if row[2].Int() != 6 {
		t.Fatalf("SUM: %v", row)
	}
	if row[3].Float() != 3 {
		t.Fatalf("AVG: %v", row)
	}
}

func TestSortAscDescStable(t *testing.T) {
	tab := ordersTable(t, 20)
	s := &Sort{
		Input: &SeqScan{Table: tab, As: "o"},
		Keys: []sqlparser.OrderItem{
			{Expr: mustExpr(t, "o.o_custkey"), Desc: false},
			{Expr: mustExpr(t, "o.o_id"), Desc: true},
		},
	}
	rel, res := run(t, s)
	for i := 1; i < len(rel.Rows); i++ {
		prev, cur := rel.Rows[i-1], rel.Rows[i]
		if prev[1].Int() > cur[1].Int() {
			t.Fatalf("not sorted by custkey at %d", i)
		}
		if prev[1].Int() == cur[1].Int() && prev[0].Int() < cur[0].Int() {
			t.Fatalf("secondary desc violated at %d", i)
		}
	}
	if res.CPUOps <= 20 {
		t.Fatalf("sort must charge n log n: %+v", res)
	}
}

func TestLimitAndDistinct(t *testing.T) {
	tab := ordersTable(t, 100)
	l := &Limit{Input: &SeqScan{Table: tab, As: "o"}, N: 7}
	rel, _ := run(t, l)
	if rel.Cardinality() != 7 {
		t.Fatalf("limit: %d", rel.Cardinality())
	}
	l2 := &Limit{Input: &SeqScan{Table: tab, As: "o"}, N: 1000}
	rel, _ = run(t, l2)
	if rel.Cardinality() != 100 {
		t.Fatalf("limit beyond size: %d", rel.Cardinality())
	}
	proj := &Project{Input: &SeqScan{Table: tab, As: "o"}, Items: []sqlparser.SelectItem{{Expr: mustExpr(t, "o.o_custkey")}}}
	d := &Distinct{Input: proj}
	rel, _ = run(t, d)
	if rel.Cardinality() != 10 {
		t.Fatalf("distinct: %d", rel.Cardinality())
	}
}

func TestValuesOperator(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Table: "x", Name: "a", Type: sqltypes.KindInt})
	rel := sqltypes.NewRelation(schema)
	rel.Rows = []sqltypes.Row{{sqltypes.NewInt(1)}}
	v := &Values{Rel: rel, Label: "frag1"}
	out, res := run(t, v)
	if out != rel || res.IOPages != 0 {
		t.Fatalf("values: %v %v", out, res)
	}
	if !strings.Contains(v.Explain(), "frag1") {
		t.Fatal("label in explain")
	}
}

func TestExplainTree(t *testing.T) {
	tab := ordersTable(t, 10)
	op := &Filter{Input: &SeqScan{Table: tab, As: "o"}, Pred: mustExpr(t, "o.o_id > 5")}
	out := ExplainTree(op)
	if !strings.Contains(out, "FILTER") || !strings.Contains(out, "SEQSCAN") {
		t.Fatalf("explain: %s", out)
	}
	if !strings.Contains(out, "\n  SEQSCAN") {
		t.Fatalf("child not indented: %q", out)
	}
}

func TestProbeFromPredicate(t *testing.T) {
	conj := sqlparser.SplitConjuncts(mustExpr(t, "o.o_id > 5 AND o.o_amount < 100"))
	probe, rest, ok := ProbeFromPredicate(conj, "o", "o_id")
	if !ok || probe.Lo == nil || probe.LoInclusive {
		t.Fatalf("probe: %+v ok=%v", probe, ok)
	}
	if len(rest) != 1 {
		t.Fatalf("rest: %v", rest)
	}
	// Flipped literal side.
	conj = sqlparser.SplitConjuncts(mustExpr(t, "5 > o.o_id"))
	probe, _, ok = ProbeFromPredicate(conj, "o", "o_id")
	if !ok || probe.Hi == nil {
		t.Fatalf("flipped probe: %+v", probe)
	}
	// BETWEEN.
	conj = sqlparser.SplitConjuncts(mustExpr(t, "o.o_id BETWEEN 3 AND 9"))
	probe, _, ok = ProbeFromPredicate(conj, "o", "o_id")
	if !ok || probe.Lo == nil || probe.Hi == nil || !probe.LoInclusive || !probe.HiInclusive {
		t.Fatalf("between probe: %+v", probe)
	}
	// Equality.
	conj = sqlparser.SplitConjuncts(mustExpr(t, "o.o_id = 4"))
	probe, rest, ok = ProbeFromPredicate(conj, "o", "o_id")
	if !ok || probe.Eq == nil || len(rest) != 0 {
		t.Fatalf("eq probe: %+v", probe)
	}
	// No match.
	conj = sqlparser.SplitConjuncts(mustExpr(t, "o.o_amount < 1"))
	if _, _, ok := ProbeFromPredicate(conj, "o", "o_id"); ok {
		t.Fatal("should not match different column")
	}
}

func TestResourcesAddString(t *testing.T) {
	r := Resources{CPUOps: 1, IOPages: 2, CachedPages: 3, OutBytes: 4}
	r.Add(Resources{CPUOps: 1, IOPages: 1, CachedPages: 1, OutBytes: 1})
	if r.CPUOps != 2 || r.IOPages != 3 || r.CachedPages != 4 || r.OutBytes != 5 {
		t.Fatalf("add: %+v", r)
	}
	if !strings.Contains(r.String(), "cpu=2") {
		t.Fatalf("string: %s", r)
	}
}

func TestIndexNLJoinDirect(t *testing.T) {
	orders := ordersTable(t, 100)
	cust := custTable(t, 10)
	if _, err := orders.CreateIndex("orders_cust", "o_custkey", storage.IndexHash); err != nil {
		t.Fatal(err)
	}
	j := &IndexNLJoin{
		Outer:    &SeqScan{Table: cust, As: "c"},
		Inner:    orders,
		Index:    indexOn(orders, "o_custkey"),
		InnerAs:  "o",
		OuterKey: mustExpr(t, "c.c_id"),
	}
	rel, res := run(t, j)
	if rel.Cardinality() != 100 {
		t.Fatalf("inl join rows: %d", rel.Cardinality())
	}
	if res.CachedPages <= 0 {
		t.Fatalf("inl join must charge cached pages: %+v", res)
	}
	if rel.Schema.Len() != 5 {
		t.Fatalf("schema: %v", rel.Schema)
	}
	// Residual filtering.
	j.Residual = mustExpr(t, "o.o_amount > 100")
	rel, _ = run(t, j)
	ai, _ := rel.Schema.ColumnIndex("o", "o_amount")
	for _, row := range rel.Rows {
		if row[ai].Float() <= 100 {
			t.Fatalf("residual: %v", row)
		}
	}
	// Equivalent hash join agrees.
	hj := &HashJoin{
		Build:    &SeqScan{Table: cust, As: "c"},
		Probe:    &SeqScan{Table: orders, As: "o"},
		BuildKey: mustExpr(t, "c.c_id"),
		ProbeKey: mustExpr(t, "o.o_custkey"),
		Residual: mustExpr(t, "o.o_amount > 100"),
	}
	hrel, _ := run(t, hj)
	if hrel.Cardinality() != rel.Cardinality() {
		t.Fatalf("inl %d vs hash %d", rel.Cardinality(), hrel.Cardinality())
	}
}

func TestExplainTreeCoversAllOperators(t *testing.T) {
	orders := ordersTable(t, 20)
	cust := custTable(t, 5)
	if _, err := orders.CreateIndex("oc", "o_custkey", storage.IndexHash); err != nil {
		t.Fatal(err)
	}
	v := sqltypes.NewInt(1)
	ops := []Operator{
		&SeqScan{Table: orders, As: "o"},
		&IndexScan{Table: orders, Index: indexOn(orders, "o_id"), Probe: IndexProbe{Eq: &v}, As: "o"},
		&Filter{Input: &SeqScan{Table: orders, As: "o"}, Pred: mustExpr(t, "o.o_id > 1")},
		&Project{Input: &SeqScan{Table: orders, As: "o"}, Items: []sqlparser.SelectItem{{Expr: mustExpr(t, "o.o_id")}}},
		&Sort{Input: &SeqScan{Table: orders, As: "o"}, Keys: []sqlparser.OrderItem{{Expr: mustExpr(t, "o.o_id")}}},
		&Limit{Input: &SeqScan{Table: orders, As: "o"}, N: 3},
		&Distinct{Input: &SeqScan{Table: orders, As: "o"}},
		&Aggregate{Input: &SeqScan{Table: orders, As: "o"}, Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggCount}}},
		&HashJoin{Build: &SeqScan{Table: cust, As: "c"}, Probe: &SeqScan{Table: orders, As: "o"},
			BuildKey: mustExpr(t, "c.c_id"), ProbeKey: mustExpr(t, "o.o_custkey"), Residual: mustExpr(t, "o.o_id > 0")},
		&NestedLoopJoin{Outer: &SeqScan{Table: cust, As: "c"}, Inner: &SeqScan{Table: orders, As: "o"}},
		&IndexNLJoin{Outer: &SeqScan{Table: cust, As: "c"}, Inner: orders, Index: indexOn(orders, "o_custkey"),
			InnerAs: "o", OuterKey: mustExpr(t, "c.c_id")},
	}
	for _, op := range ops {
		tree := ExplainTree(op)
		if tree == "" {
			t.Fatalf("empty explain for %T", op)
		}
		if op.Schema() == nil {
			t.Fatalf("nil schema for %T", op)
		}
		if _, err := op.Execute(&Context{}); err != nil {
			t.Fatalf("%T execute: %v", op, err)
		}
	}
	// Probe rendering variants.
	lo, hi := sqltypes.NewInt(1), sqltypes.NewInt(9)
	probes := []IndexProbe{
		{Eq: &v},
		{Lo: &lo, LoInclusive: true},
		{Hi: &hi, HiInclusive: true},
		{Lo: &lo, Hi: &hi},
	}
	for _, p := range probes {
		if p.String() == "" {
			t.Fatal("probe rendering")
		}
	}
}
