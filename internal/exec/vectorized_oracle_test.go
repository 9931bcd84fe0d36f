package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The vectorized engine's correctness contract is bit-identity with the row
// engine: same output values (kind and payload), same row order, same
// resource charges, same error/no-error outcome. This file checks the
// contract on randomized relations (NULL-heavy, kind-mixed) under
// randomized plans of filters, projections, sorts, aggregations, distinct,
// limit, index scans, hash, index nested-loop and nested-loop joins, plus
// targeted edge cases (empty inputs, all-NULL columns, selection-vector
// chains, hash collisions, a table rewritten while it is read).

type oracleGen struct {
	rng *rand.Rand
}

func (g *oracleGen) value(kind sqltypes.Kind, nullFrac float64) sqltypes.Value {
	if g.rng.Float64() < nullFrac {
		return sqltypes.Null
	}
	switch kind {
	case sqltypes.KindInt:
		return sqltypes.NewInt(g.rng.Int63n(20) - 10)
	case sqltypes.KindFloat:
		switch g.rng.Intn(10) {
		case 0:
			return sqltypes.NewFloat(math.NaN())
		case 1:
			return sqltypes.NewFloat(math.Copysign(0, -1))
		default:
			return sqltypes.NewFloat(float64(g.rng.Int63n(40)-20) / 4)
		}
	case sqltypes.KindString:
		return sqltypes.NewString([]string{"", "a", "ab", "hello", "wörld", "x%y"}[g.rng.Intn(6)])
	default:
		return sqltypes.NewBool(g.rng.Intn(2) == 0)
	}
}

// relation builds a random relation; prefix distinguishes column names so
// join schemas stay unambiguous.
func (g *oracleGen) relation(prefix string, n int) *sqltypes.Relation {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool}
	cols := make([]sqltypes.Column, len(kinds))
	for i, k := range kinds {
		cols[i] = sqltypes.Column{Name: fmt.Sprintf("%s%d", prefix, i), Type: k}
	}
	rel := sqltypes.NewRelation(sqltypes.NewSchema(cols...))
	for r := 0; r < n; r++ {
		row := make(sqltypes.Row, len(kinds))
		for i, k := range kinds {
			nullFrac := 0.25
			if g.rng.Intn(4) == 0 {
				nullFrac = 0.9 // occasionally near-all-NULL columns
			}
			// Column g.rng-mixed kinds sometimes, to exercise Mixed columns.
			if i == 1 && g.rng.Intn(3) == 0 {
				k = sqltypes.KindFloat
			}
			row[i] = g.value(k, nullFrac)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// expr builds a random expression over the schema.
func (g *oracleGen) expr(schema *sqltypes.Schema, depth int) sqlparser.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			c := schema.Columns[g.rng.Intn(len(schema.Columns))]
			return &sqlparser.ColumnRef{Name: c.Name}
		}
		kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool}
		return &sqlparser.Literal{Val: g.value(kinds[g.rng.Intn(len(kinds))], 0.15)}
	}
	switch g.rng.Intn(8) {
	case 0, 1:
		ops := []sqlparser.BinaryOp{
			sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe,
			sqlparser.OpGt, sqlparser.OpGe,
		}
		return &sqlparser.BinaryExpr{Op: ops[g.rng.Intn(len(ops))], Left: g.expr(schema, depth-1), Right: g.expr(schema, depth-1)}
	case 2:
		ops := []sqlparser.BinaryOp{sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv}
		return &sqlparser.BinaryExpr{Op: ops[g.rng.Intn(len(ops))], Left: g.expr(schema, depth-1), Right: g.expr(schema, depth-1)}
	case 3:
		op := sqlparser.OpAnd
		if g.rng.Intn(2) == 0 {
			op = sqlparser.OpOr
		}
		return &sqlparser.BinaryExpr{Op: op, Left: g.expr(schema, depth-1), Right: g.expr(schema, depth-1)}
	case 4:
		if g.rng.Intn(2) == 0 {
			return &sqlparser.NotExpr{Inner: g.expr(schema, depth-1)}
		}
		return &sqlparser.IsNullExpr{Inner: g.expr(schema, depth-1), Negate: g.rng.Intn(2) == 0}
	case 5:
		list := make([]sqlparser.Expr, 1+g.rng.Intn(3))
		for i := range list {
			list[i] = g.expr(schema, depth-1)
		}
		return &sqlparser.InExpr{Needle: g.expr(schema, depth-1), List: list, Negate: g.rng.Intn(2) == 0}
	case 6:
		return &sqlparser.BetweenExpr{
			Subject: g.expr(schema, depth-1),
			Lo:      g.expr(schema, depth-1),
			Hi:      g.expr(schema, depth-1),
			Negate:  g.rng.Intn(2) == 0,
		}
	default:
		switch g.rng.Intn(3) {
		case 0:
			return &sqlparser.LikeExpr{
				Subject: g.expr(schema, depth-1),
				Pattern: []string{"%", "a%", "%o%", "x_y", ""}[g.rng.Intn(5)],
				Negate:  g.rng.Intn(2) == 0,
			}
		case 1:
			name := []string{"ABS", "UPPER", "LOWER", "LENGTH", "COALESCE", "ROUND"}[g.rng.Intn(6)]
			nargs := 1
			if name == "COALESCE" {
				nargs = 1 + g.rng.Intn(3)
			}
			args := make([]sqlparser.Expr, nargs)
			for i := range args {
				args[i] = g.expr(schema, depth-1)
			}
			return &sqlparser.FuncExpr{Name: name, Args: args}
		default:
			return &sqlparser.FuncExpr{Name: "MOD", Args: []sqlparser.Expr{g.expr(schema, depth-1), g.expr(schema, depth-1)}}
		}
	}
}

// plan wraps a random operator pipeline around the leaf.
func (g *oracleGen) plan(leaf Operator, depth int) Operator {
	op := leaf
	for i := 0; i < depth; i++ {
		schema := op.Schema()
		switch g.rng.Intn(7) {
		case 0:
			op = &Filter{Input: op, Pred: g.expr(schema, 3)}
		case 1:
			items := make([]sqlparser.SelectItem, 0, 3)
			if g.rng.Intn(3) == 0 {
				items = append(items, sqlparser.SelectItem{Star: true})
			}
			for len(items) < 1+g.rng.Intn(3) {
				items = append(items, sqlparser.SelectItem{
					Expr:  g.expr(schema, 2),
					Alias: fmt.Sprintf("p%d_%d", i, len(items)),
				})
			}
			op = &Project{Input: op, Items: items}
		case 2:
			keys := make([]sqlparser.OrderItem, 1+g.rng.Intn(2))
			for k := range keys {
				keys[k] = sqlparser.OrderItem{Expr: g.expr(schema, 2), Desc: g.rng.Intn(2) == 0}
			}
			op = &Sort{Input: op, Keys: keys}
		case 3:
			op = &Distinct{Input: op}
		case 4:
			op = &Limit{Input: op, N: g.rng.Intn(20)}
		case 5:
			groupBy := make([]sqlparser.Expr, g.rng.Intn(3))
			for k := range groupBy {
				groupBy[k] = g.expr(schema, 2)
			}
			funcs := []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax}
			aggs := make([]*sqlparser.AggExpr, 1+g.rng.Intn(2))
			for k := range aggs {
				agg := &sqlparser.AggExpr{Func: funcs[g.rng.Intn(len(funcs))]}
				if !(agg.Func == sqlparser.AggCount && g.rng.Intn(2) == 0) {
					agg.Arg = g.expr(schema, 2)
				}
				aggs[k] = agg
			}
			op = &Aggregate{Input: op, GroupBy: groupBy, Aggs: aggs}
		default:
			// No-op level: keeps average pipeline length moderate.
		}
	}
	return op
}

// tail stacks a random statement tail over a join, of the shapes that leave
// some of the join's output columns unread once the plan is finished: an
// aggregate of one column, a projection of a subset (over a sort keyed on a
// column it drops, or over a filter), a distinct and a limit over a
// projection, a COUNT(*) that reads no column; or none, the join at the root
// reading every column.
func (g *oracleGen) tail(join Operator) Operator {
	schema := join.Schema()
	col := func() *sqlparser.ColumnRef {
		return &sqlparser.ColumnRef{Name: schema.Columns[g.rng.Intn(len(schema.Columns))].Name}
	}
	subset := func(drop string) []sqlparser.SelectItem {
		var items []sqlparser.SelectItem
		for _, i := range g.rng.Perm(len(schema.Columns))[:1+g.rng.Intn(3)] {
			if name := schema.Columns[i].Name; name != drop {
				items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Name: name}})
			}
		}
		if items == nil {
			items = append(items, sqlparser.SelectItem{Alias: "one", Expr: &sqlparser.Literal{Val: sqltypes.NewInt(1)}})
		}
		return items
	}
	switch g.rng.Intn(7) {
	case 0:
		return join
	case 1:
		funcs := []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax}
		agg := &Aggregate{Input: join, Aggs: []*sqlparser.AggExpr{{Func: funcs[g.rng.Intn(len(funcs))], Arg: col()}}}
		if g.rng.Intn(3) == 0 {
			agg.GroupBy = []sqlparser.Expr{col()}
		}
		return agg
	case 2:
		return &Project{Input: join, Items: subset("")}
	case 3:
		key := col()
		return &Project{Input: &Sort{Input: join, Keys: []sqlparser.OrderItem{{Expr: key, Desc: g.rng.Intn(2) == 0}}}, Items: subset(key.Name)}
	case 4:
		return &Project{Input: &Filter{Input: join, Pred: g.expr(schema, 2)}, Items: subset("")}
	case 5:
		return &Aggregate{Input: join, Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggCount}}}
	default:
		return &Limit{Input: &Distinct{Input: &Project{Input: join, Items: subset("")}}, N: g.rng.Intn(20)}
	}
}

// sidedRun runs the join of a finished plan on its own and names the input
// its output reads through a match list, "left" or "right", or "neither" for
// an output of placeholders alone; "" for an output that gathered both
// sides, that the row kernel made (its unread columns are not the
// placeholder), or that has no rows.
func sidedRun(t *testing.T, join Operator) string {
	t.Helper()
	var unread colSet
	switch x := join.(type) {
	case *HashJoin:
		unread = x.out.unread
	case *IndexNLJoin:
		unread = x.out.unread
	case *NestedLoopJoin:
		unread = x.out.unread
	}
	ls, _ := splitSchema(join)
	left, right := sidesRead(unread, len(ls.Columns), join.Schema().Len())
	bs, err := ExecuteBatches(join, &Context{})
	if err != nil || left && right {
		return ""
	}
	rows := 0
	for _, b := range bs {
		rows += b.Len()
		for i, c := range b.Cols {
			if unread.has(i) && c != colbatch.Placeholder() {
				return ""
			}
		}
	}
	switch {
	case rows == 0:
		return ""
	case left:
		return "left"
	case right:
		return "right"
	}
	return "neither"
}

// requireEverySide fails unless the plans ran the join kernel read on its
// left side only, its right side only and neither side at least once each:
// the outputs that copy no cell.
func requireEverySide(t *testing.T, kernel string, sides map[string]int) {
	t.Helper()
	for side, read := range map[string]string{"left": "its left side only", "right": "its right side only", "neither": "neither side"} {
		if sides[side] == 0 {
			t.Errorf("no plan ran the %s read on %s (%v): the oracle does not cover that output", kernel, read, sides)
		}
	}
}

func valuesBitIdentical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

func requireRelationsIdentical(t *testing.T, label string, want, got *sqltypes.Relation) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: row count %d (row) vs %d (vectorized)", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d width %d vs %d", label, i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if !valuesBitIdentical(want.Rows[i][j], got.Rows[i][j]) {
				t.Fatalf("%s: cell (%d,%d): row path %#v, vectorized %#v", label, i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// checkOracle finishes op as a planner does (each join learns which of its
// output columns are read above it) and runs it through both engines,
// requiring identical outcomes: same error presence, same rows bit-for-bit,
// same output schema, same resource charges.
func checkOracle(t *testing.T, label string, op Operator) {
	t.Helper()
	finishPlan(op, op, nil)
	var rowCtx, vecCtx Context
	wantRel, wantErr := op.Execute(&rowCtx)
	gotBatch, gotErr := ExecuteVectorized(op, &vecCtx)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: row err=%v, vectorized err=%v\nplan:\n%s", label, wantErr, gotErr, ExplainTree(op))
	}
	checkRecut(t, label, op, wantRel, wantErr, rowCtx.Res)
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text diverged: %q vs %q", label, wantErr, gotErr)
		}
		return
	}
	requireRelationsIdentical(t, label, wantRel, gotBatch.ToRelation())
	if want, got := wantRel.Schema.String(), gotBatch.Schema.String(); want != got {
		t.Fatalf("%s: schema %s (row), %s (vectorized)\nplan:\n%s", label, want, got, ExplainTree(op))
	}
	if rowCtx.Res != vecCtx.Res {
		t.Fatalf("%s: resources diverged: row %+v, vectorized %+v\nplan:\n%s", label, rowCtx.Res, vecCtx.Res, ExplainTree(op))
	}
}

func TestVectorizedOracleSingleInput(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		n := g.rng.Intn(60)
		if seed%10 == 0 {
			n = 0 // empty-input edge
		}
		rel := g.relation("c", n)
		op := g.plan(&Values{Rel: rel}, 1+g.rng.Intn(4))
		checkOracle(t, fmt.Sprintf("seed %d", seed), op)
	}
}

// TestVectorizedOracleProjectStarPositions puts * before, between and after
// bare and computed items: a computed item ahead of a * must not let the
// projection take its pick-the-input-columns path (the random plans above only
// ever lead with the *).
func TestVectorizedOracleProjectStarPositions(t *testing.T) {
	g := &oracleGen{rng: rand.New(rand.NewSource(7))}
	rel := g.relation("c", 40)
	star := sqlparser.SelectItem{Star: true}
	col := sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Name: "c3"}}
	expr := sqlparser.SelectItem{Alias: "dbl", Expr: &sqlparser.BinaryExpr{
		Op: sqlparser.OpMul, Left: &sqlparser.ColumnRef{Name: "c0"}, Right: &sqlparser.Literal{Val: sqltypes.NewInt(2)},
	}}
	for label, items := range map[string][]sqlparser.SelectItem{
		"expr, *":      {expr, star},
		"expr, *, col": {expr, star, col},
		"col, *, expr": {col, star, expr},
		"*, expr":      {star, expr},
		"col, *":       {col, star},
		"*, col, *":    {star, col, star},
	} {
		op := &Project{Input: &Values{Rel: rel}, Items: items}
		checkOracle(t, label, op)
		out, err := ExecuteVectorized(op, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(out.Cols), len(op.Schema().Columns); got != want || len(out.Schema.Columns) != want {
			t.Fatalf("%s: %d vectors under a %d-column schema", label, got, want)
		}
	}
}

func TestVectorizedOracleHashJoin(t *testing.T) {
	for seed := int64(1000); seed < 1080; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		ln, rn := g.rng.Intn(40), g.rng.Intn(40)
		if seed%7 == 0 {
			ln = 0
		}
		left := g.relation("l", ln)
		right := g.relation("r", rn)
		var build Operator = &Values{Rel: left}
		if seed%4 == 0 {
			// A join under the join: the read set splits once more.
			mid := g.relation("m", g.rng.Intn(30))
			build = &HashJoin{
				Build:      build,
				Probe:      &Values{Rel: mid},
				BuildKey:   &sqlparser.ColumnRef{Name: "l0"},
				ProbeKey:   &sqlparser.ColumnRef{Name: "m0"},
				BuildRight: g.rng.Intn(2) == 0,
			}
		}
		join := &HashJoin{
			Build:      build,
			Probe:      &Values{Rel: right},
			BuildKey:   g.expr(left.Schema, 2),
			ProbeKey:   g.expr(right.Schema, 2),
			BuildRight: g.rng.Intn(2) == 0,
		}
		if g.rng.Intn(2) == 0 {
			join.Residual = g.expr(join.Schema(), 2)
		}
		op := g.plan(g.tail(join), g.rng.Intn(3))
		checkOracle(t, fmt.Sprintf("seed %d", seed), op)
	}
}

// TestVectorizedOracleHashJoinCollisions drives the hash join's table where
// it is easiest to get wrong: every key falls into a handful of buckets (six
// distinct strings, or small integers met by their float twins, NaN and -0),
// so buckets are long, most of their entries are key-equal, and pairs must
// still come out in build order per probe row. Its plans must run the kernel
// read on the hashed side only, the streamed side only and neither, each with
// rows (requireEverySide).
func TestVectorizedOracleHashJoinCollisions(t *testing.T) {
	sides := map[string]int{}
	for seed := int64(1500); seed < 1540; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		left := g.relation("l", 150+g.rng.Intn(100))
		right := g.relation("r", 150+g.rng.Intn(100))
		// Column 3 is the six-string column; column 0 is int, column 2 float
		// (kind-mixed keys: 2 joins 2.0, NaN hashes apart from everything).
		bk, pk := 3, 3
		if seed%2 == 0 {
			bk, pk = 0, 2
		}
		join := &HashJoin{
			Build:    &Values{Rel: left},
			Probe:    &Values{Rel: right},
			BuildKey: &sqlparser.ColumnRef{Name: left.Schema.Columns[bk].Name},
			ProbeKey: &sqlparser.ColumnRef{Name: right.Schema.Columns[pk].Name},
		}
		if seed%3 == 0 {
			join.Residual = g.expr(left.Schema.Concat(right.Schema), 2)
		}
		checkOracle(t, fmt.Sprintf("seed %d", seed), g.plan(g.tail(join), g.rng.Intn(2)))
		sides[sidedRun(t, join)]++
	}
	requireEverySide(t, "hash join", sides)
}

// TestHashJoinBuildRightIsTheSameJoin: hashing the right input instead of the
// left gives the same schema, the same multiset of rows, the same resources
// and the same error presence, on random keys and residuals and on
// collision-heavy columns (duplicates, NULL, NaN, -0, int keys met by float
// twins); and the right build itself passes the oracle, row kernel against
// columnar kernel over any batch split.
func TestHashJoinBuildRightIsTheSameJoin(t *testing.T) {
	for seed := int64(2000); seed < 2100; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		n := 40
		if seed%2 == 0 {
			n = 200 // long chains
		}
		left, right := g.relation("l", g.rng.Intn(n)), g.relation("r", g.rng.Intn(n))
		if seed%9 == 0 {
			left = g.relation("l", 0)
		}
		join := &HashJoin{Build: &Values{Rel: left}, Probe: &Values{Rel: right}}
		switch seed % 3 {
		case 0:
			join.BuildKey, join.ProbeKey = g.expr(left.Schema, 2), g.expr(right.Schema, 2)
		case 1:
			join.BuildKey, join.ProbeKey = &sqlparser.ColumnRef{Name: "l3"}, &sqlparser.ColumnRef{Name: "r3"}
		default:
			join.BuildKey, join.ProbeKey = &sqlparser.ColumnRef{Name: "l0"}, &sqlparser.ColumnRef{Name: "r2"}
		}
		if g.rng.Intn(2) == 0 {
			join.Residual = g.expr(left.Schema.Concat(right.Schema), 2)
		}
		flipped := *join
		flipped.BuildRight = true
		label := fmt.Sprintf("seed %d", seed)
		checkOracle(t, label+" build right", &flipped)

		var lctx, rctx Context
		lrel, lerr := join.Execute(&lctx)
		rrel, rerr := flipped.Execute(&rctx)
		if (lerr != nil) != (rerr != nil) {
			t.Fatalf("%s: left build err=%v, right build err=%v", label, lerr, rerr)
		}
		if lerr != nil {
			continue
		}
		if lrel.Schema.String() != rrel.Schema.String() || flipped.Schema().String() != join.Schema().String() {
			t.Fatalf("%s: schema %s under a right build, %s under a left one", label, rrel.Schema, lrel.Schema)
		}
		if lctx.Res != rctx.Res {
			t.Fatalf("%s: resources %+v under a right build, %+v under a left one", label, rctx.Res, lctx.Res)
		}
		if l, r := rowMultiset(lrel), rowMultiset(rrel); !slices.Equal(l, r) {
			t.Fatalf("%s: %d rows under a left build, %d under a right one, or the rows differ", label, len(l), len(r))
		}
	}
}

// rowMultiset renders every row bit-exactly (kinds, float bits) and sorts the
// renderings.
func rowMultiset(rel *sqltypes.Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		var b strings.Builder
		for _, v := range row {
			if v.Kind() == sqltypes.KindFloat {
				fmt.Fprintf(&b, "%d:%x|", v.Kind(), math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.String())
			}
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// intKeys builds a one-column relation of n integer keys.
func intKeys(name string, n int, key func(i int) int64) *sqltypes.Relation {
	rel := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: name, Type: sqltypes.KindInt}))
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(key(i))})
	}
	return rel
}

// TestVectorizedHashJoinNaNSharesAChain pins why the table pairs by hash as
// well as by Compare: Compare calls NaN equal to every number, and the row
// kernel never pairs them only because its map is keyed by the hash. The 16
// NaN payloads below meet 1000 integer build keys, none of them the integer
// of a payload's bits (the one integer that shares its hash), so none pairs.
func TestVectorizedHashJoinNaNSharesAChain(t *testing.T) {
	build := intKeys("b", 1000, func(i int) int64 { return int64(i) })
	probe := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: "p", Type: sqltypes.KindFloat}))
	for i := uint64(0); i < 16; i++ {
		probe.Rows = append(probe.Rows, sqltypes.Row{sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000001 + i))})
	}
	probe.Rows = append(probe.Rows, sqltypes.Row{sqltypes.NewFloat(7)}) // the one real match
	join := &HashJoin{
		Build: &Values{Rel: build}, Probe: &Values{Rel: probe},
		BuildKey: &sqlparser.ColumnRef{Name: "b"}, ProbeKey: &sqlparser.ColumnRef{Name: "p"},
	}
	checkOracle(t, "NaN probe keys", join)
	out, err := newHashJoinTable(join, colbatch.FromRelation(build)).probeBatch(colbatch.FromRelation(probe))
	if err != nil || out.Len() != 1 {
		t.Fatalf("columnar kernel: %d rows, err %v; want the single 7 = 7.0 pair", out.Len(), err)
	}
}

// indexedTable stores rel as a table named name with an index of the given
// kind on column col.
func indexedTable(t *testing.T, name string, rel *sqltypes.Relation, col int, kind storage.IndexKind) (*storage.Table, *storage.Index) {
	t.Helper()
	tab := storage.NewTable(name, rel.Schema)
	if err := tab.Append(rel.Rows...); err != nil {
		t.Fatal(err)
	}
	idx, err := tab.CreateIndex(name+"_ix", rel.Schema.Columns[col].Name, kind)
	if err != nil {
		t.Fatal(err)
	}
	return tab, idx
}

// TestVectorizedOracleIndexNLJoin checks the columnar index nested-loop join
// against the row kernel: hash and sorted indexes, with and without a
// residual, NULL outer keys (a quarter of every column), duplicate inner keys
// (20 distinct integers over up to 60 rows), empty outers, a filtered outer
// (selection vector), computed outer keys, and kind-mixed keys in both
// directions (float keys probing an int index and the reverse; column 1 is
// itself int/float mixed one time in three). Its plans must run the kernel
// read on the outer side only, the inner table only and neither, each with
// rows (requireEverySide).
func TestVectorizedOracleIndexNLJoin(t *testing.T) {
	sides := map[string]int{}
	for seed := int64(3000); seed < 3120; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		on := g.rng.Intn(50)
		if seed%7 == 0 {
			on = 0
		}
		outerRel := g.relation("o", on)
		innerRel := g.relation("i", g.rng.Intn(60))
		kind := storage.IndexHash
		if seed%2 == 0 {
			kind = storage.IndexSorted
		}
		keyCols := [][2]int{{0, 0}, {2, 0}, {0, 2}, {1, 1}, {3, 3}}[g.rng.Intn(5)] // outer column, indexed inner column
		inner, idx := indexedTable(t, "inner", innerRel, keyCols[1], kind)
		var outer Operator = &Values{Rel: outerRel}
		if g.rng.Intn(3) == 0 {
			outer = &Filter{Input: outer, Pred: g.expr(outerRel.Schema, 2)}
		}
		var key sqlparser.Expr = &sqlparser.ColumnRef{Name: outerRel.Schema.Columns[keyCols[0]].Name}
		if g.rng.Intn(4) == 0 {
			key = g.expr(outerRel.Schema, 2)
		}
		join := &IndexNLJoin{Outer: outer, Inner: inner, Index: idx, InnerAs: "i", OuterKey: key}
		if g.rng.Intn(2) == 0 {
			join.Residual = g.expr(join.Schema(), 2)
		}
		checkOracle(t, fmt.Sprintf("seed %d", seed), g.plan(g.tail(join), g.rng.Intn(3)))
		sides[sidedRun(t, join)]++
	}
	requireEverySide(t, "index join", sides)
}

// TestVectorizedOracleIndexScan checks the columnar index scan against the row
// kernel: equality and range probes (open, half-open and closed bounds) on a
// sorted index and equality on a hash index, over NULL-heavy, kind-mixed tables
// with duplicate keys, under random operators. The kernel selects the table's
// own columns rather than copying rows; a probe that matches nothing returns
// what the row kernel's empty result encodes to, byte for byte; and a range
// probe on a hash index fails with the row kernel's text.
func TestVectorizedOracleIndexScan(t *testing.T) {
	empty := 0
	for seed := int64(4000); seed < 4120; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		n := g.rng.Intn(60)
		if seed%10 == 0 {
			n = 0
		}
		rel := g.relation("t", n)
		col := g.rng.Intn(4)
		kind := storage.IndexSorted
		if seed%3 == 0 {
			kind = storage.IndexHash
		}
		tab, idx := indexedTable(t, "t", rel, col, kind)
		key := func() *sqltypes.Value {
			v := g.value(rel.Schema.Columns[col].Type, 0.1)
			if n > 0 && g.rng.Intn(2) == 0 {
				v = rel.Rows[g.rng.Intn(n)][col]
			}
			return &v
		}
		var probe IndexProbe
		if kind == storage.IndexHash || g.rng.Intn(3) == 0 {
			probe.Eq = key()
		} else {
			if g.rng.Intn(4) != 0 {
				probe.Lo, probe.LoInclusive = key(), g.rng.Intn(2) == 0
			}
			if g.rng.Intn(4) != 0 {
				probe.Hi, probe.HiInclusive = key(), g.rng.Intn(2) == 0
			}
		}
		scan := &IndexScan{Table: tab, Index: idx, Probe: probe, As: "t"}
		label := fmt.Sprintf("seed %d: %s", seed, scan.Explain())
		checkOracle(t, label, g.plan(scan, g.rng.Intn(3)))

		want, err := scan.Execute(&Context{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := ExecuteVectorized(scan, &Context{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(want.Rows) == 0 {
			empty++
			if enc, rowEnc := colbatch.Encode(got).Data, colbatch.Encode(colbatch.FromRelation(want)).Data; string(enc) != string(rowEnc) {
				t.Fatalf("%s: an empty result encodes to %d bytes, the row kernel's to %d", label, len(enc), len(rowEnc))
			}
			continue
		}
		v := tab.View()
		stored := v.Columns()
		v.Close()
		for c := range got.Cols {
			if got.Cols[c] != stored[c] {
				t.Fatalf("%s: column %d is not the table's stored column", label, c)
			}
		}
	}
	if empty < 15 {
		t.Fatalf("only %d of 120 probes matched nothing", empty)
	}

	tab, idx := indexedTable(t, "t", intKeys("k", 10, func(i int) int64 { return int64(i % 4) }), 0, storage.IndexHash)
	lo := sqltypes.NewInt(1)
	scan := &IndexScan{Table: tab, Index: idx, Probe: IndexProbe{Lo: &lo}, As: "t"}
	checkOracle(t, "range probe on a hash index", scan)
	if _, err := ExecuteVectorized(scan, &Context{}); err == nil || err.Error() != "exec: hash index t_ix cannot serve range probe" {
		t.Fatalf("range probe on a hash index: err %v", err)
	}
}

// tableMutation is one step of a recorded update load: an UpdateAt, or the
// Append of one row.
type tableMutation struct {
	row, col int
	val      sqltypes.Value
	appended sqltypes.Row
}

func (m tableMutation) apply(tab *storage.Table) error {
	if m.appended != nil {
		return tab.Append(m.appended)
	}
	return tab.UpdateAt(m.row, m.col, m.val)
}

// TestVectorizedIndexReadsUnderUpdates reads a table while a writer rewrites
// it (run under -race): the writer UpdateAts the indexed join column and a
// non-indexed one and Appends rows, the readers are the index nested-loop
// join, an index range scan, an index equality scan and the sequential scan,
// each on both kernels.
// Every execution reads through exactly one storage view, so its result must
// be, bit for bit, what the row kernel answers serially on a table replayed up
// to the version the execution was stamped with — and every joined row must
// pair an outer key with an equal inner key. Once the writer stops, both
// kernels must agree on rows and charges.
func TestVectorizedIndexReadsUnderUpdates(t *testing.T) {
	const rows, maxRows, keys, runs = 400, 600, 450, 40
	outerRel := intKeys("k", 300, func(i int) int64 { return int64(i * 2 % keys) })
	lo, hi, eq := sqltypes.NewInt(100), sqltypes.NewInt(199), sqltypes.NewInt(150)
	plansOn := func(tab *storage.Table) []Operator {
		pk := indexOn(tab, "o_id")
		return []Operator{
			&IndexNLJoin{Outer: &Values{Rel: outerRel}, Inner: tab, Index: pk, InnerAs: "o", OuterKey: &sqlparser.ColumnRef{Name: "k"}},
			&IndexScan{Table: tab, Index: pk, Probe: IndexProbe{Lo: &lo, Hi: &hi, LoInclusive: true, HiInclusive: true}, As: "o"},
			&IndexScan{Table: tab, Index: pk, Probe: IndexProbe{Eq: &eq}, As: "o"},
			&SeqScan{Table: tab, As: "o"},
		}
	}
	kernels := []func(Operator, *Context) (*sqltypes.Relation, error){
		func(op Operator, ctx *Context) (*sqltypes.Relation, error) { return op.Execute(ctx) },
		func(op Operator, ctx *Context) (*sqltypes.Relation, error) {
			b, err := ExecuteVectorized(op, ctx)
			if err != nil {
				return nil, err
			}
			return b.ToRelation(), nil
		},
	}
	live := ordersTable(t, rows) // sorted index on o_id
	plans := plansOn(live)

	// The writer records what it applies: mutation i takes the table from
	// version base+i to base+i+1.
	var log []tableMutation
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng, n := rand.New(rand.NewSource(24)), rows
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			var m tableMutation
			switch {
			case k%4 == 3 && n < maxRows:
				n++
				m.appended = sqltypes.Row{sqltypes.NewInt(rng.Int63n(keys)), sqltypes.NewInt(int64(k % 10)), sqltypes.NewFloat(float64(k))}
			case k%2 == 0:
				m = tableMutation{row: rng.Intn(n), col: 0, val: sqltypes.NewInt(rng.Int63n(keys))}
			default:
				m = tableMutation{row: rng.Intn(n), col: 2, val: sqltypes.NewFloat(float64(-k))}
			}
			log = append(log, m)
			if err := m.apply(live); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	type observation struct {
		plan, kernel int
		version      int64
		rel          *sqltypes.Relation
	}
	seen := make([][]observation, len(plans)*len(kernels))
	var readers sync.WaitGroup
	for p := range plans {
		for k := range kernels {
			readers.Add(1)
			go func(p, k int) {
				defer readers.Done()
				for i := 0; i < runs; i++ {
					var ctx Context
					rel, err := kernels[k](plans[p], &ctx)
					if err != nil {
						t.Errorf("plan %d, kernel %d, run %d: %v", p, k, i, err)
						return
					}
					if len(ctx.Reads) != 1 || ctx.Reads[0].Table != live {
						t.Errorf("plan %d, kernel %d: read %+v, want one view of the table", p, k, ctx.Reads)
						return
					}
					seen[p*len(kernels)+k] = append(seen[p*len(kernels)+k], observation{p, k, ctx.Reads[0].Version, rel})
					runtime.Gosched()
				}
			}(p, k)
		}
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if t.Failed() {
		return
	}

	var all []observation
	for _, obs := range seen {
		all = append(all, obs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].version < all[j].version })
	replay := ordersTable(t, rows)
	replayPlans := plansOn(replay)
	base := tableVersion(replay)
	applied, versions := 0, map[int64]bool{}
	for _, o := range all {
		label := fmt.Sprintf("plan %d, kernel %d at version %d", o.plan, o.kernel, o.version)
		if o.version < base || o.version > base+int64(len(log)) {
			t.Fatalf("%s: the writer took the table from version %d to %d", label, base, base+int64(len(log)))
		}
		for ; base+int64(applied) < o.version; applied++ {
			if err := log[applied].apply(replay); err != nil {
				t.Fatal(err)
			}
		}
		versions[o.version] = true
		if o.plan == 0 {
			for _, row := range o.rel.Rows {
				if row[0] != row[1] {
					t.Fatalf("%s: joined row %v pairs outer key %v with inner key %v", label, row, row[0], row[1])
				}
			}
		}
		want, err := replayPlans[o.plan].Execute(&Context{})
		if err != nil {
			t.Fatal(err)
		}
		requireRelationsIdentical(t, label, want, o.rel)
	}
	if len(versions) < 8 {
		t.Fatalf("%d executions read only %d distinct versions: the writer never ran between them", len(all), len(versions))
	}
	for p, op := range plans {
		checkOracle(t, fmt.Sprintf("plan %d after the writer stopped", p), op)
	}
}

func tableVersion(tab *storage.Table) int64 {
	v := tab.View()
	defer v.Close()
	return v.Version()
}

// TestVectorizedIndexNLJoinStaleMemo: an index is read through a view of its
// own table and no other. A plan that pairs a table with another table's
// index — here a 32-row table with the index of a 64-row one, which names
// rows 40 and 63 — must return the same error from both kernels, never read a
// position the table does not hold.
func TestVectorizedIndexNLJoinStaleMemo(t *testing.T) {
	long := ordersTable(t, 64)
	short := ordersTable(t, 32)
	outerRel := intKeys("k", 3, func(i int) int64 { return []int64{3, 40, 63}[i] })
	key := sqltypes.NewInt(40)
	for _, op := range []Operator{
		&IndexNLJoin{
			Outer: &Values{Rel: outerRel}, Inner: short, Index: indexOn(long, "o_id"), InnerAs: "o",
			OuterKey: &sqlparser.ColumnRef{Name: "k"},
		},
		&IndexScan{Table: short, Index: indexOn(long, "o_id"), Probe: IndexProbe{Eq: &key}, As: "o"},
	} {
		checkOracle(t, "another table's index", op)
		if _, err := ExecuteVectorized(op, &Context{}); err == nil || !strings.Contains(err.Error(), "not an index of table") {
			t.Fatalf("%T over another table's index: err %v, want the view's refusal", op, err)
		}
	}
}

// TestVectorizedOracleNestedLoopJoin checks the columnar nested-loop join
// against the row kernel: random predicates, or none (the cross product), over
// random inputs with empty sides and with candidate pairs spanning several
// blocks, and a predicate that fails to evaluate, where the row kernel's error
// text must come back. Its plans must run the kernel read on the outer side
// only, the inner side only and neither, each with rows (requireEverySide).
func TestVectorizedOracleNestedLoopJoin(t *testing.T) {
	sides := map[string]int{}
	for seed := int64(2000); seed < 2060; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed))}
		ln, rn := g.rng.Intn(15), g.rng.Intn(15)
		switch seed % 10 {
		case 0:
			ln = 0
		case 1:
			rn = 0
		case 2:
			ln, rn = 100+g.rng.Intn(60), 50+g.rng.Intn(30) // 5 000 to 12 600 candidate pairs
		}
		left, right := g.relation("l", ln), g.relation("r", rn)
		join := &NestedLoopJoin{Outer: &Values{Rel: left}, Inner: &Values{Rel: right}}
		if seed%5 != 4 {
			join.Pred = g.expr(left.Schema.Concat(right.Schema), 2)
		}
		checkOracle(t, fmt.Sprintf("seed %d", seed), g.plan(g.tail(join), g.rng.Intn(3)))
		sides[sidedRun(t, join)]++
	}
	requireEverySide(t, "nested-loop join", sides)

	// 120 × 90 candidate pairs are three blocks, and every block keeps rows.
	outer := intKeys("a", 120, func(i int) int64 { return int64(i) })
	inner := intKeys("b", 90, func(i int) int64 { return int64(i * 3) })
	mod := func(col string, n int64) sqlparser.Expr {
		return &sqlparser.FuncExpr{Name: "MOD", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Name: col}, &sqlparser.Literal{Val: sqltypes.NewInt(n)}}}
	}
	join := &NestedLoopJoin{Outer: &Values{Rel: outer}, Inner: &Values{Rel: inner},
		Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpEq, Left: mod("a", 7), Right: mod("b", 5)}}
	if pairs := 120 * 90; pairs < 2*nestedLoopBlock {
		t.Fatalf("%d candidate pairs fill fewer than three blocks of %d", pairs, nestedLoopBlock)
	}
	checkOracle(t, "several blocks", join)
	ws, err := nestedLoopBatch(join, colbatch.FromRelation(outer), colbatch.FromRelation(inner))
	if err != nil {
		t.Fatal(err)
	}
	end := &ws[len(ws)-1]
	if first, last := ws[0].Value(0, 0).Int(), end.Value(end.Len()-1, 0).Int(); first > 10 || last < 110 {
		t.Fatalf("output runs from outer key %d to %d; want rows from the first and the last block", first, last)
	}

	// UPPER of an integer fails on the first pair: the kernel's error is the
	// row kernel's.
	join.Pred = &sqlparser.BinaryExpr{Op: sqlparser.OpEq,
		Left:  &sqlparser.FuncExpr{Name: "UPPER", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Name: "a"}}},
		Right: &sqlparser.Literal{Val: sqltypes.NewString("x")}}
	checkOracle(t, "failing predicate", join)
	if _, err := ExecuteVectorized(join, &Context{}); err == nil || !strings.Contains(err.Error(), "UPPER on INTEGER") {
		t.Fatalf("failing predicate: err %v, want the row kernel's UPPER error", err)
	}
}

// opaque is an operator no columnar kernel knows.
type opaque struct{ *Values }

// TestExecuteVectorizedRefusesAnOperatorWithoutKernel: the columnar engine
// never hands a subtree to the row engine. An operator it has no kernel for
// fails the execution by name, wherever it sits in the tree.
func TestExecuteVectorizedRefusesAnOperatorWithoutKernel(t *testing.T) {
	leaf := opaque{&Values{Rel: intKeys("k", 3, func(i int) int64 { return int64(i) })}}
	op := &Filter{Input: leaf, Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpGt, Left: &sqlparser.ColumnRef{Name: "k"}, Right: &sqlparser.Literal{Val: sqltypes.NewInt(0)}}}
	if _, err := op.Execute(&Context{}); err != nil {
		t.Fatalf("row engine: %v", err)
	}
	if _, err := ExecuteVectorized(op, &Context{}); err == nil || err.Error() != "exec: no columnar kernel for exec.opaque" {
		t.Fatalf("columnar engine: err %v, want the missing kernel named", err)
	}
}

func TestVectorizedValuesColPayload(t *testing.T) {
	g := &oracleGen{rng: rand.New(rand.NewSource(42))}
	rel := g.relation("c", 50)
	// A Values leaf carrying its columnar form must behave identically to
	// one without it.
	plain := &Values{Rel: rel}
	withCol := &Values{Rel: rel, Col: colbatch.FromRelation(rel)}
	var ctxA, ctxB Context
	a, err := ExecuteVectorized(plain, &ctxA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteVectorized(withCol, &ctxB)
	if err != nil {
		t.Fatal(err)
	}
	requireRelationsIdentical(t, "values", a.ToRelation(), b.ToRelation())
	if ctxA.Res != ctxB.Res {
		t.Fatalf("resources diverged: %+v vs %+v", ctxA.Res, ctxB.Res)
	}
}

// TestVectorizedScanColumnsLiveOnTheTable pins the scan memo's contract: two
// scans at one table version share their columns, also when the scan hands
// them over in several windows, a mutation invalidates the column it changed
// and only that one, and the memo dies with the table — nothing package-level
// may keep a scanned table (and its whole federation's data) reachable.
func TestVectorizedScanColumnsLiveOnTheTable(t *testing.T) {
	scan := func(tab *storage.Table) *colbatch.Batch {
		t.Helper()
		b, err := ExecuteVectorized(&SeqScan{Table: tab, As: "o"}, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tab := ordersTable(t, 64)
	first, second := scan(tab), scan(tab)
	if first.Cols[0] != second.Cols[0] {
		t.Fatal("two scans at one version must share the memoized columns")
	}
	if err := tab.UpdateAt(3, 2, sqltypes.NewFloat(-1)); err != nil {
		t.Fatal(err)
	}
	third := scan(tab)
	if third.Cols[2] == first.Cols[2] {
		t.Fatal("a mutation must invalidate the memoized column it changed")
	}
	if third.Cols[0] != first.Cols[0] {
		t.Fatal("a mutation must keep the memoized columns it left alone")
	}
	if got := third.ToRelation().Rows[3][2]; got != sqltypes.NewFloat(-1) {
		t.Fatalf("scan after update returned stale cell %v", got)
	}
	long := ordersTable(t, 3*scanWindow+1)
	if first, second := scan(long), scan(long); first.Cols[1] != second.Cols[1] || first.Len() != 3*scanWindow+1 {
		t.Fatal("two scans of four windows at one version must share the memoized columns")
	}

	collected := make(chan struct{})
	func() {
		doomed := ordersTable(t, 64)
		scan(doomed)
		runtime.SetFinalizer(doomed, func(*storage.Table) { close(collected) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a scanned table stayed reachable after its last reference was dropped")
}

// TestJoinRowsRefusesAnOutputPastTheRowBound: a join output row is named by
// an int32 position, so the join kernels ask joinRows before they make one,
// and it refuses more than colbatch.MaxRows rows with errJoinRows; the hash
// join refuses a hashed side its row ids cannot name the same way. The bound is checked on the count: no
// test allocates 2^31 rows. A cross join of 46 341 rows with itself is
// 2^31 + 4 634 pairs, which the nested-loop kernel refuses on the count,
// before it makes a list.
func TestJoinRowsRefusesAnOutputPastTheRowBound(t *testing.T) {
	for n, fits := range map[int]bool{0: true, colbatch.MaxRows: true, colbatch.MaxRows + 1: false, math.MaxInt: false} {
		err := joinRows(n)
		if (err == nil) != fits || (err != nil && !errors.Is(err, errJoinRows)) {
			t.Errorf("joinRows(%d) = %v, want fits=%v", n, err, fits)
		}
	}

	const side = 46341
	if side*side <= colbatch.MaxRows {
		t.Fatalf("%d × %d pairs fit the row bound", side, side)
	}
	rel := intKeys("a", side, func(i int) int64 { return int64(i) })
	join := &NestedLoopJoin{Outer: &Values{Rel: rel}, Inner: &Values{Rel: rel}}
	b := colbatch.FromRelation(rel)
	// A kernel that counted too late would build 16 GiB of lists first: the
	// watchdog ends the test binary once the heap has grown by 256 MiB.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	limit := heap[0].Value.Uint64() + 256<<20
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if metrics.Read(heap); heap[0].Value.Uint64() > limit {
				panic("the nested-loop kernel grew its lists before refusing a cross join past the row bound")
			}
		}
	}()
	spent := leastAllocated(func() {
		if _, err := nestedLoopBatch(join, b, b); !errors.Is(err, errJoinRows) {
			t.Fatalf("a cross join of %d × %d rows: err = %v, want errJoinRows", side, side, err)
		}
	})
	if spent > 1<<10 {
		t.Errorf("the refused cross join allocated %d B before its error, want at most 1 KiB", spent)
	}

	// A hashed side of 2^31 − 1 rows has no room in the table's int32 row ids:
	// its first probe refuses it on the count. The batches have no columns,
	// so no row is made.
	keys := intKeys("k", 1, func(int) int64 { return 0 })
	hj := &HashJoin{Build: &Values{Rel: keys}, Probe: &Values{Rel: rel}, BuildKey: colRef("k"), ProbeKey: colRef("a")}
	hashed := []*colbatch.Batch{colbatch.New(keys.Schema, nil, math.MaxInt32-1), colbatch.New(keys.Schema, nil, 1)}
	var ctx Context
	if _, err := newHashJoinTable(hj, hashed...).probe(colbatch.New(rel.Schema, nil, 1), &ctx); !errors.Is(err, errJoinRows) || ctx.Res != (Resources{}) {
		t.Errorf("a hashed side of %d rows: err = %v, charged %+v; want errJoinRows and no charge", math.MaxInt32, err, ctx.Res)
	}
}

// typedCuts returns rel's rows as the typed kernels meet them in a pipeline:
// a contiguous window at an offset other than 0, and a selection with other
// rows between the selected ones. The other rows are copies of rel's own, so
// every column keeps the kind (typed, Mixed or all-NULL) it has over rel.
func typedCuts(rel *sqltypes.Relation) map[string]*colbatch.Batch {
	n := len(rel.Rows)
	filler := func(i int) sqltypes.Row { return rel.Rows[i%n] }
	window := sqltypes.NewRelation(rel.Schema)
	window.Rows = append(window.Rows, filler(1), filler(2))
	window.Rows = append(window.Rows, rel.Rows...)
	window.Rows = append(window.Rows, filler(3))
	selected := sqltypes.NewRelation(rel.Schema)
	var sel []int32
	for i, row := range rel.Rows {
		for k := 0; k < 1+i%2; k++ {
			selected.Rows = append(selected.Rows, filler(i+k+1))
		}
		sel = append(sel, int32(len(selected.Rows)))
		selected.Rows = append(selected.Rows, row)
	}
	return map[string]*colbatch.Batch{
		"window":    colbatch.FromRelation(window).Slice(2, 2+n),
		"selection": colbatch.FromRelation(selected).Select(sel),
	}
}

// checkTypedKernel evaluates e over every cut of rel (see typedCuts) through the
// vectorized compiler and requires the row evaluator's outcome exactly: an
// error if and only if a row errs, with the text of the first row's error,
// else every cell bit for bit, read off the result and off the column it
// leaves as. It returns the result tag of the last cut that evaluated, -1
// when none did.
func checkTypedKernel(t *testing.T, label string, rel *sqltypes.Relation, cuts map[string]*colbatch.Batch, e sqlparser.Expr) int {
	t.Helper()
	want := make([]sqltypes.Value, len(rel.Rows))
	var wantErr error
	for i, row := range rel.Rows {
		if want[i], wantErr = sqlparser.Eval(e, row, rel.Schema); wantErr != nil {
			break
		}
	}
	tag := -1
	for cut, b := range cuts {
		res, rerr := compileExpr(e, b.Schema).eval(b, allRows(b))
		var err error
		if rerr != nil {
			err = rerr
		}
		if !sameError(wantErr, err) {
			t.Fatalf("%s over the %s: %s: row error %v, vectorized error %v", label, cut, e, wantErr, err)
		}
		if err != nil {
			continue
		}
		tag = res.tag
		for i, w := range want {
			if got := res.value(i); !valuesBitIdentical(w, got) {
				t.Fatalf("%s over the %s: %s, row %d (%v): row path %#v, vectorized %#v", label, cut, e, i, rel.Rows[i], w, got)
			}
		}
		col := res.toColumn()
		for i, w := range want {
			if got := col.Value(i); !valuesBitIdentical(w, got) {
				t.Fatalf("%s over the %s: %s, row %d of the column: row path %#v, vectorized %#v", label, cut, e, i, w, got)
			}
		}
	}
	return tag
}

// checkTypedFold folds batches, which hold rel's rows in order, through the
// vectorized fold and requires the row kernel's outcome exactly: its groups
// over rel, in order, bit for bit, or its error, with the same text.
func checkTypedFold(t *testing.T, label string, rel *sqltypes.Relation, batches []*colbatch.Batch, groupBy []sqlparser.Expr, aggs []*sqlparser.AggExpr) {
	t.Helper()
	out := aggSchema(groupBy, aggs, rel.Schema)
	rowFold := newAggFolder(groupBy, aggs)
	wantErr := rowFold.fold(rel)
	vecFold := newAggFolder(groupBy, aggs)
	var gotErr error
	for _, b := range batches {
		if gotErr = foldBatch(vecFold, b); gotErr != nil {
			break
		}
	}
	if !sameError(wantErr, gotErr) {
		t.Fatalf("%s: row fold error %v, vectorized fold error %v", label, wantErr, gotErr)
	}
	if gotErr == nil {
		requireRelationsIdentical(t, label, rowFold.result(out), vecFold.result(out))
	}
}

// sameError reports whether two outcomes agree: both no error, or errors
// with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// typedKernelRel is the relation of TestVectorizedOracleTypedKernels: an int
// column and int bounds holding the int/float twins at 2^53 + 1, a float
// column and float bounds with NaN and ±0, strings, bools, a Mixed column of
// ints, floats and a NaN, and an all-NULL column, each with a NULL; and three
// NULL-free group keys (gi, gf, gs) whose values repeat.
func typedKernelRel() *sqltypes.Relation {
	const twin = 1<<53 + 1 // float64(twin) is 2^53
	i, f, s, b, n := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewBool, sqltypes.Null
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.KindInt}, sqltypes.Column{Name: "ib", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "f", Type: sqltypes.KindFloat}, sqltypes.Column{Name: "fb", Type: sqltypes.KindFloat},
		sqltypes.Column{Name: "s", Type: sqltypes.KindString}, sqltypes.Column{Name: "b", Type: sqltypes.KindBool},
		sqltypes.Column{Name: "m", Type: sqltypes.KindFloat}, sqltypes.Column{Name: "z", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "gi", Type: sqltypes.KindInt}, sqltypes.Column{Name: "gf", Type: sqltypes.KindFloat},
		sqltypes.Column{Name: "gs", Type: sqltypes.KindString}))
	rel.Rows = []sqltypes.Row{
		{i(1), i(0), f(nan), f(0), s("a"), b(true), i(1), n, i(1), f(0.5), s("x")},
		{i(-3), i(1), f(0), f(nan), s("b"), b(false), f(-2.5), n, i(2), f(0), s("y")},
		{i(twin), i(twin), f(negZero), f(1), s(""), n, i(3), n, i(1), f(negZero), s("x")},
		{i(1 << 53), i(2), f(1 << 53), n, n, b(true), n, n, i(2), f(0.5), s("x")},
		{i(0), n, f(2.5), f(3), s("hello"), b(false), f(4), n, i(1), f(0), s("y")},
		{n, i(5), n, f(negZero), s("ab"), b(true), i(-5), n, i(2), f(0.5), s("y")},
		{i(7), i(9), f(-1), f(10), s("z"), b(false), f(nan), n, i(1), f(nan), s("x")},
	}
	return rel
}

// TestVectorizedOracleTypedKernels holds BETWEEN, comparisons, arithmetic
// and scalar functions to the row evaluator over a window at an offset and
// over a selection: NaN subjects and bounds (a NaN is inside every range),
// ±0, an int subject against float bounds and a float subject against int
// bounds at the int/float twins around 2^53 + 1, NULL subjects and bounds,
// NOT BETWEEN, string and bool subjects, a string against ints (kinds
// Compare orders by kind: the boxed loop), and a Mixed column; and folds SUM,
// COUNT, MIN and MAX over the same cuts, grouped by typed keys with and
// without NULLs. A comparison
// whose kinds have no typed rule still writes booleans, and a scalar
// function of one numeric result kind an int or float vector; an all-NULL
// result and a mixed one stay boxed.
func TestVectorizedOracleTypedKernels(t *testing.T) {
	col := colRef
	lit := func(v sqltypes.Value) sqlparser.Expr { return &sqlparser.Literal{Val: v} }
	i, f := func(v int64) sqlparser.Expr { return lit(sqltypes.NewInt(v)) }, func(v float64) sqlparser.Expr { return lit(sqltypes.NewFloat(v)) }
	str, null := func(v string) sqlparser.Expr { return lit(sqltypes.NewString(v)) }, lit(sqltypes.Null)
	bin := func(op sqlparser.BinaryOp, l, r sqlparser.Expr) sqlparser.Expr {
		return &sqlparser.BinaryExpr{Op: op, Left: l, Right: r}
	}
	fn := func(name string, args ...sqlparser.Expr) sqlparser.Expr {
		return &sqlparser.FuncExpr{Name: name, Args: args}
	}
	const twin = 1<<53 + 1
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	between := [][3]sqlparser.Expr{
		{col("f"), f(1), f(3)},             // a NaN subject is inside
		{col("f"), f(nan), f(nan)},         // NaN bounds
		{col("f"), col("fb"), i(3)},        // a NaN bound, float and int bounds
		{col("f"), i(0), i(0)},             // ±0 against int zeros
		{col("f"), f(negZero), f(0)},       // ±0
		{col("i"), f(1 << 53), f(1 << 53)}, // an int subject against float bounds: the twin is inside
		{col("i"), i(twin), i(twin)},       // int/int exactly: 2^53 is outside
		{col("f"), i(twin), i(twin)},       // a float subject against int bounds: 2^53 is inside
		{col("i"), col("ib"), i(twin)},     // an int bound vector with a NULL
		{col("i"), col("f"), i(10)},        // a float bound below, an int bound above
		{col("i"), null, i(5)},             // a NULL bound
		{col("i"), i(0), null},             // a NULL bound
		{null, i(0), i(1)},                 // a NULL subject
		{col("z"), i(0), i(1)},             // an all-NULL subject
		{col("s"), str("a"), str("b")},     // strings
		{col("s"), col("s"), str("hello")}, // strings against a vector
		{col("b"), lit(sqltypes.NewBool(false)), lit(sqltypes.NewBool(true))}, // bools
		{col("b"), lit(sqltypes.NewBool(true)), col("b")},                     // bools against a vector
		{col("s"), i(1), i(5)},      // a string against ints: the boxed loop
		{col("m"), i(0), f(3.5)},    // a Mixed subject: the boxed loop
		{i(2), col("ib"), col("i")}, // a constant subject
		// NULL-free vectors between constants: the branch-hoisted loops.
		{col("gi"), i(1), i(1)},
		{col("gi"), i(2), i(twin)},
		{col("gf"), f(0), f(0.5)},
		{col("gf"), i(0), i(0)},
		{col("gf"), f(negZero), f(negZero)},
		{col("gf"), f(nan), f(-1)},
		{col("gs"), str("x"), str("x")},
		{col("gs"), str("a"), str("xx")},
		{col("gi"), f(0.5), f(1.5)}, // an int vector between float constants
	}
	rel := typedKernelRel()
	cuts := typedCuts(rel)
	for k, c := range between {
		for _, negate := range []bool{false, true} {
			e := &sqlparser.BetweenExpr{Subject: c[0], Lo: c[1], Hi: c[2], Negate: negate}
			if tag := checkTypedKernel(t, fmt.Sprintf("between %d", k), rel, cuts, e); tag != rBools {
				t.Fatalf("%s: result tag %d, want booleans", e, tag)
			}
		}
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
	pairs := [][2]sqlparser.Expr{
		{col("f"), i(2)}, {col("f"), f(2.5)}, {col("f"), f(nan)}, {col("f"), f(negZero)}, {col("f"), col("fb")},
		{col("i"), f(1.5)}, {col("i"), i(1 << 53)}, {col("i"), f(1 << 53)}, {col("i"), col("ib")}, {col("ib"), col("f")},
		{col("s"), str("b")}, {col("s"), col("s")}, {col("b"), lit(sqltypes.NewBool(true))},
		{col("m"), i(1)}, {col("m"), null}, {col("s"), i(1)}, {col("z"), i(1)}, {i(3), col("i")},
		{col("gi"), i(1)}, {col("gi"), f(1)}, {col("gf"), i(0)}, {col("gf"), f(negZero)}, {col("gf"), f(nan)}, {col("gs"), str("x")},
	}
	for k, p := range pairs {
		for _, op := range ops {
			if tag := checkTypedKernel(t, fmt.Sprintf("comparison %d", k), rel, cuts, bin(op, p[0], p[1])); tag != rBools {
				t.Fatalf("%s %s %s: result tag %d, want booleans", p[0], op, p[1], tag)
			}
		}
	}
	for k, p := range [][2]sqlparser.Expr{{col("i"), i(1)}, {col("f"), col("i")}, {col("m"), i(2)}, {col("i"), i(0)}, {col("s"), str("!")}} {
		for _, op := range []sqlparser.BinaryOp{sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv} {
			checkTypedKernel(t, fmt.Sprintf("arithmetic %d", k), rel, cuts, bin(op, p[0], p[1]))
		}
	}
	for _, c := range []struct {
		e   sqlparser.Expr
		tag int
	}{
		{fn("ABS", col("i")), rInts},
		{fn("ABS", col("f")), rFloats},
		{fn("LENGTH", col("s")), rInts},
		{fn("MOD", col("i"), i(3)), rInts},
		{fn("ROUND", col("m")), rFloats},
		{fn("UPPER", col("s")), rVals},     // strings are boxed
		{fn("ABS", col("z")), rVals},       // every result NULL
		{fn("ABS", col("m")), rVals},       // ints and floats
		{fn("MOD", col("i"), i(0)), rVals}, // every result NULL
		{fn("ABS", col("s")), -1},          // an error
	} {
		if tag := checkTypedKernel(t, "function", rel, cuts, c.e); tag != c.tag {
			t.Fatalf("%s: result tag %d, want %d", c.e, tag, c.tag)
		}
	}
	var aggs []*sqlparser.AggExpr
	for _, arg := range []sqlparser.Expr{col("i"), col("f"), col("m"), col("s"), fn("ABS", col("i")), fn("ABS", col("m"))} {
		for _, fnc := range []sqlparser.AggFunc{sqlparser.AggSum, sqlparser.AggCount, sqlparser.AggMin, sqlparser.AggMax} {
			aggs = append(aggs, &sqlparser.AggExpr{Func: fnc, Arg: arg})
		}
	}
	aggs = append(aggs, &sqlparser.AggExpr{Func: sqlparser.AggCount})
	for _, groupBy := range [][]sqlparser.Expr{nil, {col("gi")}, {col("gf")}, {col("gs")}, {col("gi"), col("gs")}, {col("b")}, {col("i")}, {col("m")}} {
		for cut, b := range cuts {
			checkTypedFold(t, fmt.Sprintf("group by %v over the %s", groupBy, cut), rel, []*colbatch.Batch{b}, groupBy, aggs)
		}
	}
}

// TestVectorizedFoldAcrossBatchKinds: an aggregate argument can be a float
// vector in one batch and an int vector in the next (a column whose cells
// analyze differently batch by batch, or a function's result), or boxed in
// between. MIN and MAX then compare across kinds as sqltypes.Compare does,
// not by the payload of the kind the state met first.
func TestVectorizedFoldAcrossBatchKinds(t *testing.T) {
	sch := sqltypes.NewSchema(sqltypes.Column{Name: "g", Type: sqltypes.KindInt}, sqltypes.Column{Name: "c", Type: sqltypes.KindFloat})
	batch := func(cells ...sqltypes.Value) *sqltypes.Relation {
		rel := sqltypes.NewRelation(sch)
		for i, c := range cells {
			rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(int64(i % 2)), c})
		}
		return rel
	}
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	parts := []*sqltypes.Relation{
		batch(f(5), f(-1.5)), batch(i(3), i(-7)), batch(f(2.5), i(9)), batch(i(4), f(-8)), batch(f(math.NaN()), f(10)),
	}
	all := sqltypes.NewRelation(sch)
	var batches []*colbatch.Batch
	for _, p := range parts {
		all.Rows = append(all.Rows, p.Rows...)
		batches = append(batches, colbatch.FromRelation(p))
	}
	var aggs []*sqlparser.AggExpr
	for _, fn := range []sqlparser.AggFunc{sqlparser.AggMin, sqlparser.AggMax, sqlparser.AggSum} {
		for _, arg := range []sqlparser.Expr{colRef("c"), &sqlparser.FuncExpr{Name: "ABS", Args: []sqlparser.Expr{colRef("c")}}} {
			aggs = append(aggs, &sqlparser.AggExpr{Func: fn, Arg: arg})
		}
	}
	for _, groupBy := range [][]sqlparser.Expr{nil, {colRef("g")}} {
		want, err := (&Aggregate{Input: &Values{Rel: all}, GroupBy: groupBy, Aggs: aggs}).Execute(&Context{})
		if err != nil {
			t.Fatal(err)
		}
		stream := &BatchStream{Sch: sch, Label: "kinds", Src: &sliceSource{batches: slices.Clone(batches)}}
		got, err := ExecuteVectorized(&Aggregate{Input: stream, GroupBy: groupBy, Aggs: aggs}, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		requireRelationsIdentical(t, fmt.Sprintf("group by %v", groupBy), want, got.ToRelation())
	}
}
