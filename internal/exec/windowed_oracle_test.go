package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// A SeqScan hands the pipeline its table in windows of scanWindow rows. These
// tests run every kernel over stored tables whose sizes sit on and around the
// window boundaries — no row, one row, one short of a window, exactly one, one
// over, and two windows and a part — and require the row engine's rows and
// Resources bit for bit, as the engine oracle does for every plan.

// windowSizes are the stored-table sizes the windowed-scan oracle runs.
var windowSizes = []int{0, 1, scanWindow - 1, scanWindow, scanWindow + 1, 2*scanWindow + 17}

// storedTable stores rel as a table.
func storedTable(t *testing.T, name string, rel *sqltypes.Relation) *storage.Table {
	t.Helper()
	tab := storage.NewTable(name, rel.Schema)
	if err := tab.Append(rel.Rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

// leastAllocated runs run once to warm it up, then five times, and returns
// the fewest bytes one of those runs allocated.
func leastAllocated(run func()) uint64 {
	run()
	bytes := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return bytes
}

func colRef(name string) *sqlparser.ColumnRef { return &sqlparser.ColumnRef{Name: name} }

func intLit(v int64) *sqlparser.Literal { return &sqlparser.Literal{Val: sqltypes.NewInt(v)} }

// TestVectorizedOracleWindowedScans runs filter, project (bare and computed
// items), hash join with the windowed scan hashed and streamed under both
// build sides, index-join outer, nested loop, sort, distinct, limit, scalar
// and grouped aggregate and the shard-final merge over scans of every window
// size, plus random plans over the same scans.
func TestVectorizedOracleWindowedScans(t *testing.T) {
	for si, n := range windowSizes {
		g := &oracleGen{rng: rand.New(rand.NewSource(int64(6000 + si)))}
		rel := g.relation("t", n)
		scan := &SeqScan{Table: storedTable(t, "t", rel), As: "t"}
		small := g.relation("s", 40)
		inner, idx := indexedTable(t, "inner", g.relation("i", 60), 0, storage.IndexHash)
		gt := &sqlparser.BinaryExpr{Op: sqlparser.OpGt, Left: colRef("t0"), Right: intLit(0)}
		sum := func(arg sqlparser.Expr) *sqlparser.AggExpr {
			return &sqlparser.AggExpr{Func: sqlparser.AggSum, Arg: arg}
		}
		aggs := []*sqlparser.AggExpr{
			sum(colRef("t2")), {Func: sqlparser.AggCount}, {Func: sqlparser.AggAvg, Arg: colRef("t1")},
			{Func: sqlparser.AggMin, Arg: colRef("t3")}, {Func: sqlparser.AggMax, Arg: colRef("t0")},
		}
		plans := map[string]Operator{
			"scan":             scan,
			"filter":           &Filter{Input: scan, Pred: gt},
			"random filter":    &Filter{Input: scan, Pred: g.expr(rel.Schema, 3)},
			"project bare":     &Project{Input: scan, Items: []sqlparser.SelectItem{{Expr: colRef("t3")}, {Expr: colRef("t0")}}},
			"project computed": &Project{Input: scan, Items: []sqlparser.SelectItem{{Expr: colRef("t4")}, {Star: true}, {Alias: "x", Expr: &sqlparser.BinaryExpr{Op: sqlparser.OpMul, Left: colRef("t0"), Right: intLit(3)}}, {Alias: "y", Expr: g.expr(rel.Schema, 2)}}},
			"filtered project": &Project{Input: &Filter{Input: scan, Pred: gt}, Items: []sqlparser.SelectItem{{Expr: colRef("t2")}, {Alias: "c", Expr: gt}}},
			"sort":             &Sort{Input: scan, Keys: []sqlparser.OrderItem{{Expr: colRef("t3")}, {Expr: colRef("t2"), Desc: true}}},
			"distinct":         &Distinct{Input: &Project{Input: scan, Items: []sqlparser.SelectItem{{Expr: colRef("t3")}, {Expr: colRef("t4")}}}},
			"distinct rows":    &Distinct{Input: scan},
			"limit":            &Limit{Input: scan, N: scanWindow + 5},
			"filtered limit":   &Limit{Input: &Filter{Input: scan, Pred: gt}, N: 3},
			"scalar aggregate": &Aggregate{Input: scan, Aggs: aggs},
			"filtered scalar":  &Aggregate{Input: &Filter{Input: scan, Pred: gt}, Aggs: []*sqlparser.AggExpr{sum(colRef("t2")), {Func: sqlparser.AggCount}}},
			"grouped":          &Aggregate{Input: scan, GroupBy: []sqlparser.Expr{colRef("t3")}, Aggs: aggs},
			"index-join outer": &IndexNLJoin{Outer: scan, Inner: inner, Index: idx, InnerAs: "i", OuterKey: colRef("t0")},
			"index-join filtered outer": &IndexNLJoin{Outer: &Filter{Input: scan, Pred: gt}, Inner: inner, Index: idx, InnerAs: "i", OuterKey: colRef("t0"),
				Residual: &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("t3"), Right: colRef("i3")}},
			"nested loop": &NestedLoopJoin{Outer: scan, Inner: &Values{Rel: g.relation("n", 3)},
				Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpLt, Left: colRef("t0"), Right: colRef("n0")}},
			"random plan": g.plan(scan, 3),
		}
		for _, buildRight := range []bool{false, true} {
			for _, scanBuilds := range []bool{false, true} {
				join := &HashJoin{Build: &Values{Rel: small}, Probe: scan, BuildKey: colRef("s0"), ProbeKey: colRef("t0"), BuildRight: buildRight}
				if scanBuilds {
					join = &HashJoin{Build: scan, Probe: &Values{Rel: small}, BuildKey: colRef("t0"), ProbeKey: colRef("s0"), BuildRight: buildRight,
						Residual: &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("t3"), Right: colRef("s3")}}
				}
				plans[fmt.Sprintf("hash join, scan builds %v, build right %v", scanBuilds, buildRight)] = g.tail(join)
			}
		}
		plans["shard final"] = shardFinalOverScan(t, g, n)
		for label, op := range plans {
			checkOracle(t, fmt.Sprintf("%d rows: %s", n, label), op)
		}
	}
}

// shardFinalOverScan is a ShardAggFinal over a stored table of n partial-state
// rows, made by the partial aggregate over chunks of random base rows.
func shardFinalOverScan(t *testing.T, g *oracleGen, n int) Operator {
	t.Helper()
	base, aggs := shardBase(), shardAggs()
	groupBy := []sqlparser.Expr{&sqlparser.ColumnRef{Table: "t", Name: "g"}}
	var partialAggs []*sqlparser.AggExpr
	for _, it := range PartialAggItems(aggs) {
		partialAggs = append(partialAggs, it.Expr.(*sqlparser.AggExpr))
	}
	partial := &Aggregate{Input: &Values{Rel: sqltypes.NewRelation(base)}, GroupBy: groupBy, Aggs: partialAggs}
	partials := sqltypes.NewRelation(partial.Schema())
	for len(partials.Rows) < n {
		chunk := sqltypes.NewRelation(base)
		for i := 0; i < 1+g.rng.Intn(6); i++ {
			v := sqltypes.NewFloat(float64(g.rng.Intn(40)) * 0.5)
			if g.rng.Intn(5) == 0 {
				v = sqltypes.Null
			}
			chunk.Rows = append(chunk.Rows, sqltypes.Row{sqltypes.NewInt(int64(g.rng.Intn(7))), v})
		}
		part, err := (&Aggregate{Input: &Values{Rel: chunk}, GroupBy: groupBy, Aggs: partialAggs}).Execute(&Context{})
		if err != nil {
			t.Fatal(err)
		}
		partials.Rows = append(partials.Rows, part.Rows...)
	}
	partials.Rows = partials.Rows[:n]
	scan := &SeqScan{Table: storedTable(t, "p", partials), As: "p"}
	return &ShardAggFinal{Input: scan, GroupBy: groupBy, Aggs: aggs, Base: base}
}

// TestVectorizedOracleFractionalChargeBeforeWindows pins the one charge whose
// order matters. An index scan on the hashed side charges its descent, a
// fraction, before the streamed scan's windows are probed; from then on
// ctx.Res.CPUOps is fractional, every addition rounds, and only the row
// engine's grouping (one addition per operator) reproduces its bits. The plans
// put per-window charges of growing size above the join — the probe, a
// filter, a wide projection, an aggregate — so that some addition of the row
// engine spans several binades at once, where rounding in steps and rounding
// once part ways. Each must match the row engine bit for bit.
func TestVectorizedOracleFractionalChargeBeforeWindows(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(7000 + seed))}
		n := 2*scanWindow + 17 + g.rng.Intn(2*scanWindow)
		scan := &SeqScan{Table: storedTable(t, "t", g.relation("t", n)), As: "t"}
		keyed, idx := indexedTable(t, "k", intKeys("k0", 17+g.rng.Intn(20), func(i int) int64 { return int64(i - 10) }), 0, storage.IndexSorted)
		lo := sqltypes.NewInt(int64(g.rng.Intn(10) - 10))
		hashed := &IndexScan{Table: keyed, Index: idx, Probe: IndexProbe{Lo: &lo, LoInclusive: true}, As: "k"}
		join := &HashJoin{Build: hashed, Probe: scan, BuildKey: colRef("k0"), ProbeKey: colRef("t0")}
		items := make([]sqlparser.SelectItem, 4+g.rng.Intn(60))
		for i := range items {
			items[i] = sqlparser.SelectItem{Expr: colRef("t2")}
		}
		filtered := &Filter{Input: join, Pred: &sqlparser.IsNullExpr{Inner: colRef("t3"), Negate: true}}
		var ctx Context
		if _, err := ExecuteVectorized(hashed, &ctx); err != nil || ctx.Res.CPUOps == math.Trunc(ctx.Res.CPUOps) {
			t.Fatalf("seed %d: the index scan charges %v (err %v); the case needs a fractional charge", seed, ctx.Res.CPUOps, err)
		}
		for label, op := range map[string]Operator{
			"project":            &Project{Input: join, Items: items},
			"filter, project":    &Project{Input: filtered, Items: items},
			"project, aggregate": &Aggregate{Input: &Project{Input: join, Items: items}, Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggCount}, {Func: sqlparser.AggSum, Arg: colRef("t2")}}},
		} {
			checkOracle(t, fmt.Sprintf("seed %d: join, %s", seed, label), op)
		}
	}
}

// TestWindowedScalarFoldAllocatesNoRowVectors: SUM and COUNT over a filtered
// scan of 16 windows allocate nothing that grows with the scanned rows but
// the selection vectors, 4 B per row that passes. The rest is scratch the
// size of one window (the predicate's booleans) and a few headers per
// window: 12 KiB. The fold reads the argument through the selection, where
// it lies: a copy of the selected cells, 8 B per surviving row, fails the
// bound, and so does a whole-table batch: one boolean per input row, a
// second selection vector, and the fold's per-row hashes and group pointers.
func TestWindowedScalarFoldAllocatesNoRowVectors(t *testing.T) {
	const rows = 16 * scanWindow
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.KindInt}, sqltypes.Column{Name: "v", Type: sqltypes.KindFloat}))
	for i := 0; i < rows; i++ {
		rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(int64(i % 4)), sqltypes.NewFloat(float64(i))})
	}
	// Every other row passes, so every window keeps the same number of rows.
	pred := &sqlparser.BinaryExpr{Op: sqlparser.OpLt, Left: colRef("k"), Right: intLit(2)}
	op := &Aggregate{Input: &Filter{Input: &SeqScan{Table: storedTable(t, "t", rel), As: "t"}, Pred: pred},
		Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: colRef("v")}, {Func: sqlparser.AggCount}}}
	const survivors = rows / 2
	run := func() {
		out, err := ExecuteVectorized(op, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Value(0, 1).Int(); got != survivors {
			t.Fatalf("COUNT(*) = %d, want %d", got, survivors)
		}
	}
	if bytes, limit := leastAllocated(run), uint64(4*survivors+12<<10); bytes > limit {
		t.Fatalf("one run over %d rows allocated %d bytes; want at most 4 B per surviving row plus 12 KiB (%d)", rows, bytes, limit)
	}
}

// TestFilterSelectionIsFourBytesARow: a filter over a scan of 16 windows
// allocates, beyond what the scan does, a selection vector of one int32 per
// row it keeps, plus a fixed slack for scratch the size of one window (the
// predicate's booleans) and a header per window: 16 KiB, of which about 5
// are used. An 8 B position fails the bound by more than 80 KiB.
func TestFilterSelectionIsFourBytesARow(t *testing.T) {
	const rows = 16 * scanWindow
	rel := intKeys("k", rows, func(i int) int64 { return int64(i % 4) })
	scan := &SeqScan{Table: storedTable(t, "t", rel), As: "t"}
	filter := &Filter{Input: scan, Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("k"), Right: intLit(0)}}
	const kept = rows / 4 * 3
	batches := func(op Operator, want int) func() {
		return func() {
			bs, err := ExecuteBatches(op, &Context{})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, b := range bs {
				n += b.Len()
			}
			if n != want {
				t.Fatalf("%s yielded %d rows, want %d", op.Explain(), n, want)
			}
		}
	}
	scanned, filtered := leastAllocated(batches(scan, rows)), leastAllocated(batches(filter, kept))
	if limit := uint64(4*kept + 16<<10); filtered-scanned > limit {
		t.Fatalf("the filter allocated %d bytes beyond its scan's %d; want at most 4 B per kept row plus 16 KiB (%d)", filtered-scanned, scanned, limit)
	}
}
