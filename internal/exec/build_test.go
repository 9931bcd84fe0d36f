package exec

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

func buildLeaves(t *testing.T) map[string]Operator {
	t.Helper()
	orders := ordersTable(t, 100)
	cust := custTable(t, 10)
	return map[string]Operator{
		"o": &SeqScan{Table: orders, As: "o"},
		"c": &SeqScan{Table: cust, As: "c"},
	}
}

func runSQL(t *testing.T, sql string, leaves map[string]Operator) *sqltypes.Relation {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	op, err := BuildPlan(stmt, leaves)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rel, err := op.Execute(&Context{})
	if err != nil {
		t.Fatalf("execute %s\n%s: %v", sql, ExplainTree(op), err)
	}
	return rel
}

func TestBuildPlanSimpleFilterProject(t *testing.T) {
	rel := runSQL(t, "SELECT o.o_id FROM orders AS o WHERE o.o_id < 5", buildLeaves(t))
	if rel.Cardinality() != 5 {
		t.Fatalf("rows: %d", rel.Cardinality())
	}
	if rel.Schema.Len() != 1 {
		t.Fatalf("schema: %v", rel.Schema)
	}
}

func TestBuildPlanStar(t *testing.T) {
	rel := runSQL(t, "SELECT * FROM orders AS o WHERE o.o_id = 3", buildLeaves(t))
	if rel.Cardinality() != 1 || rel.Schema.Len() != 3 {
		t.Fatalf("star: %v", rel)
	}
}

func TestBuildPlanJoinUsesHashJoin(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT o.o_id, c.c_name FROM orders AS o JOIN customer AS c ON o.o_custkey = c.c_id WHERE c.c_id < 3")
	op, err := BuildPlan(stmt, buildLeaves(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ExplainTree(op), "HASHJOIN") {
		t.Fatalf("expected hash join:\n%s", ExplainTree(op))
	}
	rel, err := op.Execute(&Context{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 30 { // custkeys 0,1,2 → 10 orders each
		t.Fatalf("join rows: %d", rel.Cardinality())
	}
}

func TestBuildPlanCommaJoinWithWherePredicate(t *testing.T) {
	rel := runSQL(t, "SELECT o.o_id FROM orders AS o, customer AS c WHERE o.o_custkey = c.c_id AND c.c_id = 1", buildLeaves(t))
	if rel.Cardinality() != 10 {
		t.Fatalf("rows: %d", rel.Cardinality())
	}
}

func TestBuildPlanCrossJoinFallsBackToNL(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o JOIN customer AS c ON o.o_custkey < c.c_id")
	op, err := BuildPlan(stmt, buildLeaves(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ExplainTree(op), "NLJOIN") {
		t.Fatalf("expected NL join:\n%s", ExplainTree(op))
	}
	rel, err := op.Execute(&Context{})
	if err != nil {
		t.Fatal(err)
	}
	// each order with custkey k joins customers with c_id > k: 10 orders per k, sum over k of (9-k)
	want := 0
	for k := 0; k < 10; k++ {
		want += 10 * (9 - k)
	}
	if rel.Cardinality() != want {
		t.Fatalf("nl rows: %d want %d", rel.Cardinality(), want)
	}
}

func TestBuildPlanAggregation(t *testing.T) {
	rel := runSQL(t, "SELECT o.o_custkey, COUNT(*) AS n, SUM(o.o_amount) AS total FROM orders AS o GROUP BY o.o_custkey HAVING COUNT(*) > 0 ORDER BY o.o_custkey", buildLeaves(t))
	if rel.Cardinality() != 10 {
		t.Fatalf("groups: %d", rel.Cardinality())
	}
	if rel.Schema.Columns[1].Name != "n" || rel.Schema.Columns[2].Name != "total" {
		t.Fatalf("schema: %v", rel.Schema)
	}
	for i := 1; i < len(rel.Rows); i++ {
		if rel.Rows[i-1][0].Int() > rel.Rows[i][0].Int() {
			t.Fatal("not ordered")
		}
	}
	if rel.Rows[0][1].Int() != 10 {
		t.Fatalf("count: %v", rel.Rows[0])
	}
}

func TestBuildPlanScalarAggregate(t *testing.T) {
	rel := runSQL(t, "SELECT COUNT(*), SUM(o.o_amount) FROM orders AS o WHERE o.o_id < 10", buildLeaves(t))
	if rel.Cardinality() != 1 {
		t.Fatalf("scalar agg rows: %d", rel.Cardinality())
	}
	if rel.Rows[0][0].Int() != 10 {
		t.Fatalf("count: %v", rel.Rows[0])
	}
	want := 0.0
	for i := 0; i < 10; i++ {
		want += float64(i) * 2
	}
	if rel.Rows[0][1].Float() != want {
		t.Fatalf("sum: %v want %g", rel.Rows[0], want)
	}
}

func TestBuildPlanHavingFilters(t *testing.T) {
	rel := runSQL(t, "SELECT o.o_custkey, SUM(o.o_amount) AS s FROM orders AS o GROUP BY o.o_custkey HAVING SUM(o.o_amount) > 900", buildLeaves(t))
	for _, row := range rel.Rows {
		if row[1].Float() <= 900 {
			t.Fatalf("having violated: %v", row)
		}
	}
	if rel.Cardinality() == 0 || rel.Cardinality() == 10 {
		t.Fatalf("having should filter some groups: %d", rel.Cardinality())
	}
}

func TestBuildPlanDistinctAndLimit(t *testing.T) {
	rel := runSQL(t, "SELECT DISTINCT o.o_custkey FROM orders AS o", buildLeaves(t))
	if rel.Cardinality() != 10 {
		t.Fatalf("distinct: %d", rel.Cardinality())
	}
	rel = runSQL(t, "SELECT o.o_id FROM orders AS o ORDER BY o.o_id DESC LIMIT 3", buildLeaves(t))
	if rel.Cardinality() != 3 || rel.Rows[0][0].Int() != 99 {
		t.Fatalf("order+limit: %v", rel.Rows)
	}
}

func TestBuildPlanOrderByAlias(t *testing.T) {
	rel := runSQL(t, "SELECT o.o_custkey AS k, SUM(o.o_amount) AS s FROM orders AS o GROUP BY o.o_custkey ORDER BY s DESC LIMIT 2", buildLeaves(t))
	if rel.Cardinality() != 2 {
		t.Fatalf("rows: %d", rel.Cardinality())
	}
	if rel.Rows[0][1].Float() < rel.Rows[1][1].Float() {
		t.Fatalf("desc by alias: %v", rel.Rows)
	}
}

func TestBuildPlanMissingLeafErrors(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT * FROM nowhere")
	if _, err := BuildPlan(stmt, map[string]Operator{}); err == nil {
		t.Fatal("missing leaf must error")
	}
}

func TestBuildPlanStarWithAggregationErrors(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT *, COUNT(*) FROM orders AS o")
	if _, err := BuildPlan(stmt, buildLeaves(t)); err == nil {
		t.Fatal("star + aggregate must error")
	}
}

func TestBuildPlanOverValuesLeaves(t *testing.T) {
	// The integrator path: leaves are materialized fragment results.
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "f1", Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "f1", Name: "v", Type: sqltypes.KindFloat},
	)
	rel1 := sqltypes.NewRelation(schema)
	for i := 0; i < 5; i++ {
		rel1.Rows = append(rel1.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i))})
	}
	schema2 := sqltypes.NewSchema(
		sqltypes.Column{Table: "f2", Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "f2", Name: "w", Type: sqltypes.KindString},
	)
	rel2 := sqltypes.NewRelation(schema2)
	for i := 3; i < 8; i++ {
		rel2.Rows = append(rel2.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("w")})
	}
	leaves := map[string]Operator{
		"f1": &Values{Rel: rel1, Label: "f1"},
		"f2": &Values{Rel: rel2, Label: "f2"},
	}
	rel := runSQL(t, "SELECT f1.k, f2.w FROM f1 JOIN f2 ON f1.k = f2.k", leaves)
	if rel.Cardinality() != 2 { // keys 3,4
		t.Fatalf("merge join: %d", rel.Cardinality())
	}
}

// TestJoinLeftDeepBuildsTheEarlierSide: with estimated finish times a join
// hashes its right input only when that finishes strictly before everything
// already joined on its left; without them every join builds left.
func TestJoinLeftDeepBuildsTheEarlierSide(t *testing.T) {
	inputs := []Operator{
		&Values{Rel: intKeys("a", 3, func(i int) int64 { return int64(i) })},
		&Values{Rel: intKeys("b", 3, func(i int) int64 { return int64(i) })},
		&Values{Rel: intKeys("c", 3, func(i int) int64 { return int64(i) })},
	}
	preds := []sqlparser.Expr{
		mustExpr(t, "a = b"),
		mustExpr(t, "b = c"),
	}
	for _, c := range []struct {
		finish []float64
		want   [2]bool // the first join's BuildRight, then the second's
	}{
		{nil, [2]bool{false, false}},
		{[]float64{5, 3, 9}, [2]bool{true, false}},
		{[]float64{5, 5, 5}, [2]bool{false, false}},
		// The left side of the second join finishes with its later input (9).
		{[]float64{1, 9, 4}, [2]bool{false, true}},
		{[]float64{9, 1, 4}, [2]bool{true, true}},
	} {
		top := JoinLeftDeep(inputs, preds, c.finish)
		second, ok := top.(*HashJoin)
		if !ok {
			t.Fatalf("%v: top is %T, want a hash join", c.finish, top)
		}
		first := second.Build.(*HashJoin)
		if got := [2]bool{first.BuildRight, second.BuildRight}; got != c.want {
			t.Errorf("finish %v: BuildRight %v, want %v", c.finish, got, c.want)
		}
		if s := top.Schema().String(); s != inputs[0].Schema().Concat(inputs[1].Schema()).Concat(inputs[2].Schema()).String() {
			t.Errorf("finish %v: schema %s is not the inputs' columns in order", c.finish, s)
		}
	}
}
