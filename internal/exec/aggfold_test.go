package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// The aggregation kernel folds a batch a window of foldWindow rows at a time
// into states held with their group, one slice of them per group. This
// file's fuzz target holds the windowed fold, and the two-phase merge, to the
// row kernel bit for bit; the allocation tests hold the scratch to one window
// and a group's states to one allocation.

// groupedBatch is one batch of n rows: k, an int key of `keys` values, and
// v, a float.
func groupedBatch(n, keys int) *colbatch.Batch {
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.KindInt}, sqltypes.Column{Name: "v", Type: sqltypes.KindFloat}))
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(int64(i % keys)), sqltypes.NewFloat(float64(i) / 4)})
	}
	return colbatch.FromRelation(rel)
}

// TestGroupFoldScratchIsWindowSized: folding one 100 000-row batch grouped
// by a 16-value key allocates the groups, the compiled fold and one window of
// per-row scratch (a hash and a group pointer a row, 4 KiB), not scratch as
// long as the batch: that is 1.6 MB.
func TestGroupFoldScratchIsWindowSized(t *testing.T) {
	const rows, keys = 100_000, 16
	b := groupedBatch(rows, keys)
	groupBy := []sqlparser.Expr{colRef("k")}
	aggs := []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: colRef("v")}, {Func: sqlparser.AggCount}}
	run := func() {
		f := newAggFolder(groupBy, aggs)
		if err := foldBatch(f, b); err != nil {
			t.Fatal(err)
		}
		if len(f.order) != keys {
			t.Fatalf("%d groups, want %d", len(f.order), keys)
		}
	}
	// A group is its header, its key row and its states (about 250 B here);
	// the slack covers the hash map, the group order and the compiled fold.
	const perGroup, slack = 256, 8 << 10
	if bytes, limit := leastAllocated(run), uint64(keys*perGroup+foldWindow*16+slack); bytes > limit {
		t.Fatalf("folding %d rows into %d groups allocated %d bytes; want at most %d (the groups, one window of scratch and %d B of slack)",
			rows, keys, bytes, limit, slack)
	}
}

// TestGroupStateIsOneAllocation: a new group costs the same allocations
// whatever the number of aggregates it folds: its header, its key row and
// one slice of states. The allocations a group adds are those of a fold into
// 64 groups less those of a fold of as many rows into one, per extra group.
func TestGroupStateIsOneAllocation(t *testing.T) {
	const rows, groups = 1024, 64
	many, one := groupedBatch(rows, groups), groupedBatch(rows, 1)
	allAggs := []*sqlparser.AggExpr{
		{Func: sqlparser.AggSum, Arg: colRef("v")}, {Func: sqlparser.AggCount}, {Func: sqlparser.AggMin, Arg: colRef("v")},
		{Func: sqlparser.AggMax, Arg: colRef("v")}, {Func: sqlparser.AggAvg, Arg: colRef("v")}, {Func: sqlparser.AggCount, Arg: colRef("v")},
	}
	perGroup := func(aggs []*sqlparser.AggExpr) float64 {
		fold := func(b *colbatch.Batch) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := foldBatch(newAggFolder([]sqlparser.Expr{colRef("k")}, aggs), b); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (fold(many) - fold(one)) / (groups - 1)
	}
	first, all := perGroup(allAggs[:1]), perGroup(allAggs)
	if all != first {
		t.Fatalf("a group of %d aggregates costs %.2f allocations, one of 1 aggregate %.2f; want the same", len(allAggs), all, first)
	}
	if first > 4 {
		t.Fatalf("a group costs %.2f allocations; want at most 4 (header, key row, states and the amortized map and order)", first)
	}
}

// TestRowFoldAllocatesPerGroup: the row kernel reuses one key row and copies
// it only for a new group, so folding four times the rows into the same
// groups allocates no more.
func TestRowFoldAllocatesPerGroup(t *testing.T) {
	groupBy := []sqlparser.Expr{colRef("k")}
	aggs := []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: colRef("v")}, {Func: sqlparser.AggCount}}
	fold := func(rows int) float64 {
		rel := groupedBatch(rows, 4).ToRelation()
		return testing.AllocsPerRun(5, func() {
			if err := newAggFolder(groupBy, aggs).fold(rel); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := fold(1000), fold(4000); large > small {
		t.Fatalf("the row fold allocated %.0f times over 1000 rows and %.0f over 4000; want no more", small, large)
	}
}

// foldRows are batch lengths around the fold window.
var foldRows = []int{0, 1, foldWindow - 1, foldWindow, foldWindow + 1, 3*foldWindow + 7}

// foldRel is n rows of random group keys (g0: int, g1: float with NaN, g2:
// string, g3: ints and floats, each with NULLs) and aggregate arguments
// (x0: int, x1: float with NaN, ±0 and ±Inf, x2: ints and floats, x3: all
// NULL), drawn from few values so groups repeat.
func foldRel(rng *rand.Rand, n int) *sqltypes.Relation {
	cols := make([]sqltypes.Column, 0, 8)
	for i := range 4 {
		cols = append(cols, sqltypes.Column{Name: fmt.Sprintf("g%d", i), Type: sqltypes.KindFloat})
	}
	for i := range 4 {
		cols = append(cols, sqltypes.Column{Name: fmt.Sprintf("x%d", i), Type: sqltypes.KindFloat})
	}
	keyKinds := []int{typedColInt, typedColFloat, typedColString, typedColMixed}
	argKinds := []int{typedColInt, typedColFloat, typedColMixed, typedColNull}
	nullFrac := make([]float64, 8)
	for i := range nullFrac {
		if rng.Intn(2) == 0 {
			nullFrac[i] = 0.15
		}
	}
	small := func(kind int) sqltypes.Value {
		v := typedCell(rng, kind, 0)
		if v.Kind() == sqltypes.KindInt {
			return sqltypes.NewInt(v.Int() % 4) // few key values, and ints that sum without overflowing
		}
		return v
	}
	rel := sqltypes.NewRelation(sqltypes.NewSchema(cols...))
	for range n {
		row := make(sqltypes.Row, 0, 8)
		for i, k := range keyKinds {
			if rng.Float64() < nullFrac[i] {
				row = append(row, sqltypes.Null)
			} else {
				row = append(row, small(k))
			}
		}
		for i, k := range argKinds {
			row = append(row, typedCell(rng, k, nullFrac[4+i]))
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// foldCuts cuts rel's rows into consecutive batches, each a window at an
// offset or a selection, and marks some for the row kernel to fold.
func foldCuts(rng *rand.Rand, rel *sqltypes.Relation, cuts int) (batches []*colbatch.Batch, byRow []bool) {
	rows := rel.Rows
	for c := 0; c < cuts; c++ {
		n := len(rows)
		if c < cuts-1 && n > 0 {
			n = rng.Intn(n + 1)
		}
		part := sqltypes.NewRelation(rel.Schema)
		part.Rows = rows[:n]
		rows = rows[n:]
		if n == 0 {
			batches = append(batches, colbatch.FromRelation(part))
		} else {
			for _, b := range randomCut(rng, part) {
				batches = append(batches, b)
			}
		}
		byRow = append(byRow, c > 0 && c < cuts-1 && rng.Intn(2) == 0)
	}
	return batches, byRow
}

// FuzzAggregateFoldMatchesRowKernel: COUNT, SUM, AVG, MIN and MAX over int,
// float, mixed and all-NULL arguments, grouped by int, float, string and
// mixed keys with NULLs and NaNs (or by nothing), fold to the row kernel's
// groups bit for bit whatever the batch lengths around the fold window,
// windows or selections, and batches the row kernel folds between typed ones
// (the two kernels share the group states). The
// two-phase path does too: partial states folded per shard by both kernels,
// then merged by ShardAggFinal's row kernel and its vectorized pipeline.
func FuzzAggregateFoldMatchesRowKernel(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*11))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		rel := foldRel(rng, foldRows[int(shape)%len(foldRows)])
		label := fmt.Sprintf("seed %d shape %d", seed, shape)
		var groupBy []sqlparser.Expr
		for i := range 4 {
			if rng.Intn(3) == 0 {
				groupBy = append(groupBy, colRef(fmt.Sprintf("g%d", i)))
			}
		}
		funcs := []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax}
		aggs := []*sqlparser.AggExpr{{Func: sqlparser.AggCount}}
		for _, fn := range funcs {
			for x := range 4 {
				if rng.Intn(2) == 0 {
					aggs = append(aggs, &sqlparser.AggExpr{Func: fn, Arg: colRef(fmt.Sprintf("x%d", x))})
				}
			}
		}
		out := aggSchema(groupBy, aggs, rel.Schema)

		// One phase: the vectorized fold over the cuts, with the row kernel
		// folding the marked batches, against the row kernel over rel.
		rowFold := newAggFolder(groupBy, aggs)
		if err := rowFold.fold(rel); err != nil {
			t.Fatal(err)
		}
		want := rowFold.result(out)
		batches, byRow := foldCuts(rng, rel, 1+int(shape/8)%4)
		vecFold := newAggFolder(groupBy, aggs)
		for i, b := range batches {
			var err error
			if byRow[i] {
				err = vecFold.fold(b.ToRelation())
			} else {
				err = foldBatch(vecFold, b)
			}
			if err != nil {
				t.Fatalf("%s: batch %d: %v", label, i, err)
			}
		}
		requireRelationsIdentical(t, label, want, vecFold.result(out))

		// Two phases: each shard's partial states, folded by the row kernel
		// and by the vectorized one, merge to the same bits.
		var partialAggs []*sqlparser.AggExpr
		for _, item := range PartialAggItems(aggs) {
			partialAggs = append(partialAggs, item.Expr.(*sqlparser.AggExpr))
		}
		partialSchema := aggSchema(groupBy, partialAggs, rel.Schema)
		rowPartials := sqltypes.NewRelation(partialSchema)
		var vecPartials []*colbatch.Batch
		for s, b := range batches {
			shard := b.ToRelation()
			rowShard := newAggFolder(groupBy, partialAggs)
			if err := rowShard.fold(shard); err != nil {
				t.Fatal(err)
			}
			rowPartials.Rows = append(rowPartials.Rows, rowShard.result(partialSchema).Rows...)
			vecShard := newAggFolder(groupBy, partialAggs)
			if err := foldBatch(vecShard, b); err != nil {
				t.Fatalf("%s: shard %d: %v", label, s, err)
			}
			vecPartials = append(vecPartials, colbatch.FromRelation(vecShard.result(partialSchema)))
		}
		final := &ShardAggFinal{Input: &Values{Rel: rowPartials}, GroupBy: groupBy, Aggs: aggs, Base: rel.Schema}
		wantMerged, err := final.Execute(&Context{})
		if err != nil {
			t.Fatal(err)
		}
		stream := &BatchStream{Sch: partialSchema, Label: "partials", Src: &sliceSource{batches: vecPartials}}
		gotMerged, err := ExecuteVectorized(&ShardAggFinal{Input: stream, GroupBy: groupBy, Aggs: aggs, Base: rel.Schema}, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		requireRelationsIdentical(t, label+", two phases", wantMerged, gotMerged.ToRelation())
	})
}
