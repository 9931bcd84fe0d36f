package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The columnar index join counts its matches, allocates its output columns
// once for all of them and gathers them window by window, scanWindow rows at
// a time. These tests run it with match counts on and around the window
// boundaries and require the row kernel's rows, Resources and WireSize bit
// for bit; then they hold the kernel to window-sized scratch and to windows
// that a drain joins without copying.

// inlOuterSchema and inlInnerSchema are the two sides of the joins below:
// the outer side probes with ok, the inner table is indexed on ik.
var (
	inlOuterSchema = sqltypes.NewSchema(sqltypes.Column{Name: "seq", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "ok", Type: sqltypes.KindInt}, sqltypes.Column{Name: "w", Type: sqltypes.KindFloat})
	inlInnerSchema = sqltypes.NewSchema(sqltypes.Column{Name: "ik", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "v", Type: sqltypes.KindFloat}, sqltypes.Column{Name: "s", Type: sqltypes.KindString})
)

// inlLayout is an outer relation and an inner one whose join has a known
// number of matches.
type inlLayout struct {
	name         string
	outer, inner *sqltypes.Relation
	matches      int
}

func (l *inlLayout) probe(key sqltypes.Value) {
	seq := int64(len(l.outer.Rows))
	l.outer.Rows = append(l.outer.Rows, sqltypes.Row{sqltypes.NewInt(seq), key, sqltypes.NewFloat(float64(seq) / 4)})
}

func (l *inlLayout) store(key int64) {
	j := len(l.inner.Rows)
	l.inner.Rows = append(l.inner.Rows, sqltypes.Row{sqltypes.NewInt(key), sqltypes.NewFloat(float64(j) * 0.5), sqltypes.NewString(fmt.Sprintf("s%d", j%13))})
}

// spreadLayout joins m outer rows to one inner row each, with NULL keys and
// keys the index does not hold between them, and inner rows nothing probes.
func spreadLayout(m int) *inlLayout {
	l := &inlLayout{name: fmt.Sprintf("%d matches, one per probe", m), outer: sqltypes.NewRelation(inlOuterSchema), inner: sqltypes.NewRelation(inlInnerSchema), matches: m}
	for j := 0; j < m; j++ {
		l.store(int64(j))
		switch {
		case j%5 == 0:
			l.probe(sqltypes.Null)
		case j%7 == 0:
			l.probe(sqltypes.NewInt(-1))
		}
		l.probe(sqltypes.NewInt(int64(j)))
	}
	for j := 0; j < 50; j++ {
		l.store(int64(1_000_000 + j))
	}
	l.probe(sqltypes.Null)
	return l
}

// heavyLayout probes one key of more than a window's matches twice, with
// small buckets, a NULL and a miss around and between the two probes.
func heavyLayout() *inlLayout {
	l := &inlLayout{name: "one key over a window", outer: sqltypes.NewRelation(inlOuterSchema), inner: sqltypes.NewRelation(inlInnerSchema)}
	heavy := scanWindow + 3
	for j := 0; j < heavy; j++ {
		l.store(7)
		if j%500 == 0 {
			l.store(int64(j))
		}
	}
	for _, k := range []int64{500, 7, -1, 1000} {
		l.probe(sqltypes.NewInt(k))
	}
	l.probe(sqltypes.Null)
	for _, k := range []int64{7, 1500, 0} {
		l.probe(sqltypes.NewInt(k))
	}
	l.matches = 2*heavy + 4
	return l
}

// TestVectorizedOracleIndexJoinWindows runs the index join over match counts
// of 0, 1, W−1, W, W+1 and 2W+17 (W = scanWindow) and over one key with more
// than W matches, on hash and sorted indexes: alone and drained, under
// residuals that keep only the first or only the last rows (so whole windows
// come out empty), under a scalar aggregate and a Project, as a hash join's
// streamed and hashed sides, and over an index scan whose fractional descent
// comes before the join's windows, with wide per-window charges above them.
func TestVectorizedOracleIndexJoinWindows(t *testing.T) {
	var layouts []*inlLayout
	for _, m := range windowSizes {
		layouts = append(layouts, spreadLayout(m))
	}
	layouts = append(layouts, heavyLayout())
	sum := func(arg string) *sqlparser.AggExpr {
		return &sqlparser.AggExpr{Func: sqlparser.AggSum, Arg: colRef(arg)}
	}
	cmp := func(op sqlparser.BinaryOp, col string, v int64) sqlparser.Expr {
		return &sqlparser.BinaryExpr{Op: op, Left: colRef(col), Right: intLit(v)}
	}
	for li, l := range layouts {
		var kinds []sqltypes.Kind
		for _, rel := range []*sqltypes.Relation{l.outer, l.inner} {
			for _, col := range colbatch.FromRelation(rel).Cols {
				kinds = append(kinds, col.Kind)
			}
		}
		for _, kind := range []storage.IndexKind{storage.IndexHash, storage.IndexSorted} {
			outerTab, seqIdx := indexedTable(t, "o", l.outer, 0, storage.IndexSorted)
			innerTab, idx := indexedTable(t, "i", l.inner, 0, kind)
			g := &oracleGen{rng: rand.New(rand.NewSource(int64(8000 + 2*li + int(kind))))}
			join := func(outer Operator, residual sqlparser.Expr) *IndexNLJoin {
				return &IndexNLJoin{Outer: outer, Inner: innerTab, Index: idx, InnerAs: "i", OuterKey: colRef("ok"), Residual: residual}
			}
			scan := func() Operator { return &SeqScan{Table: outerTab, As: "o"} }
			n := int64(len(l.outer.Rows))
			small := intKeys("b0", 40, func(i int) int64 { return int64(i * 3) })
			plans := map[string]Operator{
				"drain":            join(scan(), nil),
				"residual head":    join(scan(), cmp(sqlparser.OpLt, "seq", 40)),
				"residual tail":    join(scan(), cmp(sqlparser.OpGe, "seq", n-40)),
				"residual none":    join(scan(), cmp(sqlparser.OpLt, "seq", -1)),
				"scalar aggregate": &Aggregate{Input: join(scan(), nil), Aggs: []*sqlparser.AggExpr{sum("v"), {Func: sqlparser.AggCount}, {Func: sqlparser.AggMin, Arg: colRef("s")}}},
				"project": &Project{Input: join(scan(), cmp(sqlparser.OpGe, "seq", n/2)), Items: []sqlparser.SelectItem{
					{Expr: colRef("s")}, {Expr: colRef("seq")}, {Alias: "x", Expr: &sqlparser.BinaryExpr{Op: sqlparser.OpMul, Left: colRef("w"), Right: intLit(2)}}}},
				"streamed side": &HashJoin{Build: &Values{Rel: small}, Probe: join(scan(), nil), BuildKey: colRef("b0"), ProbeKey: colRef("ik")},
				"hashed side":   &HashJoin{Build: join(scan(), cmp(sqlparser.OpGe, "seq", n/3)), Probe: &Values{Rel: small}, BuildKey: colRef("ik"), ProbeKey: colRef("b0")},
			}
			// The index scan's descent makes CPUOps fractional before the
			// join's first window; projections of random width above the join
			// make some per-window sum span several binades.
			for draw := 0; draw < 2; draw++ {
				lo := sqltypes.NewInt(int64(g.rng.Intn(3)))
				wide := make([]sqlparser.SelectItem, 4+g.rng.Intn(60))
				for i := range wide {
					wide[i] = sqlparser.SelectItem{Alias: fmt.Sprintf("c%d", i), Expr: colRef([]string{"v", "seq", "s"}[i%3])}
				}
				ranged := func() Operator {
					return join(&IndexScan{Table: outerTab, Index: seqIdx, Probe: IndexProbe{Lo: &lo, LoInclusive: true}, As: "o"}, nil)
				}
				plans[fmt.Sprintf("fractional %d, project", draw)] = &Project{Input: ranged(), Items: wide}
				plans[fmt.Sprintf("fractional %d, aggregate", draw)] = &Aggregate{Input: &Project{Input: ranged(), Items: wide},
					Aggs: []*sqlparser.AggExpr{{Func: sqlparser.AggCount}, sum("c0")}}
			}
			for label, op := range plans {
				label = fmt.Sprintf("%s, %s index: %s", l.name, kind, label)
				checkOracle(t, label, op)
				if join, ok := op.(*IndexNLJoin); ok {
					checkWireSize(t, label, join, kinds)
				}
			}
			// The join on its own yields exactly its matches, in windows.
			bs, err := ExecuteBatches(join(scan(), nil), &Context{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(bs), max(1, (l.matches+scanWindow-1)/scanWindow); got != want {
				t.Fatalf("%s: %d batches, want %d", l.name, got, want)
			}
			rows := 0
			for _, b := range bs {
				rows += b.Len()
			}
			if rows != l.matches {
				t.Fatalf("%s: %d joined rows, want %d", l.name, rows, l.matches)
			}
		}
	}
}

// checkWireSize requires the join's columnar result to cost what the row
// result costs on the wire. A result with no rows must also keep its columns'
// kinds, the kinds of its sources' columns (kinds): the columnar wire encodes
// a typed empty column in more bytes than a kindless one.
func checkWireSize(t *testing.T, label string, join *IndexNLJoin, kinds []sqltypes.Kind) {
	t.Helper()
	want, err := join.Execute(&Context{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteVectorized(join, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := colbatch.FromRelation(want).WireSize(), got.WireSize(); w != g {
		t.Fatalf("%s: wire size %d (row), %d (vectorized)", label, w, g)
	}
	if got.Len() > 0 {
		return
	}
	for c, col := range got.Cols {
		if col.Kind != kinds[c] {
			t.Fatalf("%s: empty result column %d has kind %v, want %v", label, c, col.Kind, kinds[c])
		}
	}
}

// inlFanOut is a join of 16 windows of matches from 16 outer rows: the
// inner table holds 16 keys with a window of rows each.
func inlFanOut(t *testing.T) (outer *SeqScan, inner *storage.Table, idx *storage.Index) {
	t.Helper()
	l := &inlLayout{outer: sqltypes.NewRelation(inlOuterSchema), inner: sqltypes.NewRelation(inlInnerSchema)}
	for j := 0; j < 16*scanWindow; j++ {
		l.store(int64(j % 16))
	}
	for k := int64(0); k < 16; k++ {
		l.probe(sqltypes.NewInt(k))
	}
	inner, idx = indexedTable(t, "i", l.inner, 0, storage.IndexHash)
	return &SeqScan{Table: storedTable(t, "o", l.outer), As: "o"}, inner, idx
}

// TestIndexJoinListsAreWindowSized: SUM and COUNT over an index join of 16
// windows of matches. Read on the inner side only (SUM(v)), the join
// allocates the one list of inner positions its output reads the inner
// table's own columns through (4 B a match) and a few headers: 16 KiB covers
// them, and a gather of v (8 B a match) fails the bound. Read on both sides
// (SUM(v) and SUM(w)), it gathers the two read columns (16 B a match) with
// match lists the size of a window and the outer side and its key hashes (16
// rows): 64 KiB covers those, and lists as long as all the matches fail the
// bound, two 4 B entries per match and more while they grow.
func TestIndexJoinListsAreWindowSized(t *testing.T) {
	const matches = 16 * scanWindow
	outer, inner, idx := inlFanOut(t)
	sum := func(col string) *sqlparser.AggExpr {
		return &sqlparser.AggExpr{Func: sqlparser.AggSum, Arg: colRef(col)}
	}
	for _, tc := range []struct {
		label string
		aggs  []*sqlparser.AggExpr
		limit uint64
	}{
		{"inner side read", []*sqlparser.AggExpr{{Func: sqlparser.AggCount}, sum("v")}, 4*matches + 16<<10},
		{"both sides read", []*sqlparser.AggExpr{{Func: sqlparser.AggCount}, sum("v"), sum("w")}, 16*matches + 64<<10},
	} {
		op := &Aggregate{Input: &IndexNLJoin{Outer: outer, Inner: inner, Index: idx, InnerAs: "i", OuterKey: colRef("ok")}, Aggs: tc.aggs}
		finishPlan(op, op, nil)
		run := func() {
			out, err := ExecuteVectorized(op, &Context{})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Value(0, 0).Int(); got != matches {
				t.Fatalf("%s: COUNT(*) = %d, want %d", tc.label, got, matches)
			}
		}
		if bytes := leastAllocated(run); bytes > tc.limit {
			t.Fatalf("%s: one run over %d matches allocated %d bytes; want at most %d", tc.label, matches, bytes, tc.limit)
		}
	}
}

// TestIndexJoinDrainsWithoutACopy: the windows of a join are views of one set
// of output columns, so collecting them — what a fragment that ships the
// join's rows does — joins them into one view of those columns, with or
// without a residual, and copies no cell.
func TestIndexJoinDrainsWithoutACopy(t *testing.T) {
	outer, inner, idx := inlFanOut(t)
	for _, residual := range []sqlparser.Expr{nil, &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("s"), Right: &sqlparser.Literal{Val: sqltypes.NewString("s3")}}} {
		join := &IndexNLJoin{Outer: outer, Inner: inner, Index: idx, InnerAs: "i", OuterKey: colRef("ok"), Residual: residual}
		var acc colbatch.Accumulator
		var windows []*colbatch.Batch
		for p := open(join, &Context{}); ; {
			b, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			windows = append(windows, b)
			acc.Append(b)
		}
		if len(windows) != 16 {
			t.Fatalf("residual %v: %d windows, want 16", residual, len(windows))
		}
		out := acc.Finish()
		for _, w := range windows {
			for c, col := range w.Cols {
				if out.Cols[c] != col {
					t.Fatalf("residual %v: the drained batch's column %d is not its windows' column: the drain copied", residual, c)
				}
			}
		}
		want, err := join.Execute(&Context{})
		if err != nil {
			t.Fatal(err)
		}
		requireRelationsIdentical(t, fmt.Sprintf("residual %v", residual), want, out.ToRelation())
	}
}
