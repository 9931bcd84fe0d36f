package exec

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// The pull pipeline's contract on top of the engine oracle: however the
// leaves' rows are cut into batches, a plan returns the row executor's rows
// bit for bit and charges the same exec.Resources. checkOracle calls
// checkRecut for every random plan of this package's oracle tests, so each of
// them also runs with its Values leaves replaced by BatchStream leaves over
// random splits: empty batches, one-row batches, batches whose column
// analysis differs from their neighbours' (an all-NULL column before a typed
// one, Mixed next to typed), selection-vector batches and offset windows.

// sliceSource replays batches through a BatchStream.
type sliceSource struct{ batches []*colbatch.Batch }

func (s *sliceSource) Next() (*colbatch.Batch, error) {
	if len(s.batches) == 0 {
		return nil, nil
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// recut cuts rel's rows into random consecutive batches.
func recut(rng *rand.Rand, rel *sqltypes.Relation) []*colbatch.Batch {
	empty := func() *colbatch.Batch { return colbatch.FromRelation(sqltypes.NewRelation(rel.Schema)) }
	if len(rel.Rows) == 0 && rng.Intn(2) == 0 {
		return nil // a source that ends before its first batch
	}
	var out []*colbatch.Batch
	rows := rel.Rows
	for len(rows) > 0 {
		if rng.Intn(6) == 0 {
			out = append(out, empty())
		}
		n := 1
		switch rng.Intn(3) {
		case 0:
			n = 1 + rng.Intn(min(4, len(rows)))
		case 1:
			n = 1 + rng.Intn(len(rows))
		}
		out = append(out, shaped(rng, rel, rows[:n]))
		rows = rows[n:]
	}
	if len(out) == 0 || rng.Intn(6) == 0 {
		out = append(out, empty())
	}
	return out
}

// shaped builds a batch whose logical rows are chunk, as a plain batch, as a
// selection over a batch that also holds other rows of rel, or as an offset
// window of one. The other rows take part in the column analysis, so the
// same cells arrive typed in one batch and Mixed or all-NULL in the next.
func shaped(rng *rand.Rand, rel *sqltypes.Relation, chunk []sqltypes.Row) *colbatch.Batch {
	junk := func() sqltypes.Row { return rel.Rows[rng.Intn(len(rel.Rows))] }
	super := sqltypes.NewRelation(rel.Schema)
	switch rng.Intn(3) {
	case 0:
		var sel []int32
		for _, row := range chunk {
			for rng.Intn(2) == 0 {
				super.Rows = append(super.Rows, junk())
			}
			sel = append(sel, int32(len(super.Rows)))
			super.Rows = append(super.Rows, row)
		}
		super.Rows = append(super.Rows, junk())
		return colbatch.FromRelation(super).Select(sel)
	case 1:
		lo := rng.Intn(3)
		for i := 0; i < lo; i++ {
			super.Rows = append(super.Rows, junk())
		}
		super.Rows = append(super.Rows, chunk...)
		super.Rows = append(super.Rows, junk())
		return colbatch.FromRelation(super).Slice(lo, lo+len(chunk))
	default:
		super.Rows = chunk
		return colbatch.FromRelation(super)
	}
}

// recutLeaves copies the plan with every Values leaf replaced by a
// BatchStream over a fresh random split of its rows. A leaf over a stored
// table stays as it is: the engine cuts a SeqScan into windows itself, and
// windowed_oracle_test.go runs scans of every size around the window. A join
// is copied whole, with what finishing the plan fixed about its output: the
// leaves' schemas do not change.
func recutLeaves(t *testing.T, rng *rand.Rand, op Operator) Operator {
	t.Helper()
	in := func(child Operator) Operator { return recutLeaves(t, rng, child) }
	switch x := op.(type) {
	case *Values:
		return &BatchStream{Sch: x.Rel.Schema, Label: "recut", Src: &sliceSource{batches: recut(rng, x.Rel)}}
	case *SeqScan, *IndexScan:
		return x
	case *Filter:
		return &Filter{Input: in(x.Input), Pred: x.Pred}
	case *Project:
		return &Project{Input: in(x.Input), Items: x.Items}
	case *Sort:
		return &Sort{Input: in(x.Input), Keys: x.Keys}
	case *Limit:
		return &Limit{Input: in(x.Input), N: x.N}
	case *Distinct:
		return &Distinct{Input: in(x.Input)}
	case *Aggregate:
		return &Aggregate{Input: in(x.Input), GroupBy: x.GroupBy, Aggs: x.Aggs}
	case *ShardAggFinal:
		return &ShardAggFinal{Input: in(x.Input), GroupBy: x.GroupBy, Aggs: x.Aggs, Base: x.Base}
	case *HashJoin:
		cp := *x
		cp.Build, cp.Probe = in(x.Build), in(x.Probe)
		return &cp
	case *NestedLoopJoin:
		cp := *x
		cp.Outer, cp.Inner = in(x.Outer), in(x.Inner)
		return &cp
	case *IndexNLJoin:
		cp := *x
		cp.Outer = in(x.Outer)
		return &cp
	default:
		t.Fatalf("recutLeaves: no rule for %T", op)
		return nil
	}
}

// checkRecut runs op over three random splits of its leaves and requires the
// row executor's outcome every time: the same error presence (which row fails
// first depends on where the batches end, so the text may differ), the same
// rows, the same resources.
func checkRecut(t *testing.T, label string, op Operator, want *sqltypes.Relation, wantErr error, wantRes Resources) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(label))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for split := 0; split < 3; split++ {
		var ctx Context
		cut := recutLeaves(t, rng, op)
		got, err := ExecuteVectorized(cut, &ctx)
		if (wantErr != nil) != (err != nil) {
			t.Fatalf("%s, split %d: row err=%v, pipeline err=%v\nplan:\n%s", label, split, wantErr, err, ExplainTree(op))
		}
		if wantErr != nil {
			continue
		}
		requireRelationsIdentical(t, label, want, got.ToRelation())
		if ctx.Res != wantRes {
			t.Fatalf("%s, split %d: resources diverged: row %+v, pipeline %+v\nplan:\n%s", label, split, wantRes, ctx.Res, ExplainTree(op))
		}
	}
}

// TestPipelineRecutShardAggFinal runs the two-phase merge over partial-state
// rows that arrive in random batch splits, the shape the integrator feeds it.
func TestPipelineRecutShardAggFinal(t *testing.T) {
	base, aggs := shardBase(), shardAggs()
	groupBy := []sqlparser.Expr{&sqlparser.ColumnRef{Table: "t", Name: "g"}}
	var partialAggs []*sqlparser.AggExpr
	for _, it := range PartialAggItems(aggs) {
		partialAggs = append(partialAggs, it.Expr.(*sqlparser.AggExpr))
	}
	rows := shardRows()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		var partials *sqltypes.Relation
		for at := 0; at < len(rows); {
			n := min(1+rng.Intn(15), len(rows)-at)
			part, err := (&Aggregate{Input: &Values{Rel: relOf(base, rows[at:at+n])}, GroupBy: groupBy, Aggs: partialAggs}).Execute(&Context{})
			if err != nil {
				t.Fatal(err)
			}
			if partials == nil {
				partials = sqltypes.NewRelation(part.Schema)
			}
			partials.Rows = append(partials.Rows, part.Rows...)
			at += n
		}
		checkOracle(t, fmt.Sprintf("shard final, seed %d", seed), &ShardAggFinal{Input: &Values{Rel: partials}, GroupBy: groupBy, Aggs: aggs, Base: base})
	}
}

// TestPipelinePassesLoneBatchThrough pins the no-copy rule the remote servers
// rely on: one input batch reaches the caller as the same batch, and several
// concatenate into columns allocated at exactly their final size. A scan's
// windows are the exception to concatenating: drained, the windows of a
// three-window scan are the table's own columns again, as one window, and a
// filter's selections over them one selection vector over those columns.
func TestPipelinePassesLoneBatchThrough(t *testing.T) {
	g := &oracleGen{rng: rand.New(rand.NewSource(5))}
	rel := g.relation("c", 40)
	col := colbatch.FromRelation(rel)
	got, err := ExecuteVectorized(&Values{Rel: rel, Col: col}, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if got != col {
		t.Fatal("a single batch must pass through the pipeline uncopied")
	}
	parts := []*colbatch.Batch{col.Slice(0, 10), col.Slice(10, 40)}
	got, err = ExecuteVectorized(&BatchStream{Sch: rel.Schema, Src: &sliceSource{batches: parts}}, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	requireRelationsIdentical(t, "concatenation", rel, got.ToRelation())
	if ints := got.Cols[0].Ints; ints != nil && cap(ints) != 40 {
		t.Fatalf("concatenated column has capacity %d for 40 rows", cap(ints))
	}

	tab := ordersTable(t, 3*scanWindow)
	v := tab.View()
	stored := v.Columns()
	v.Close()
	scan := &SeqScan{Table: tab, As: "o"}
	pred := &sqlparser.BinaryExpr{Op: sqlparser.OpLt, Left: colRef("o_custkey"), Right: intLit(3)}
	for _, op := range []Operator{scan, &Filter{Input: scan, Pred: pred}} {
		checkOracle(t, "drained "+op.Explain(), op)
		got, err := ExecuteVectorized(op, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		for c := range stored {
			if got.Cols[c] != stored[c] {
				t.Fatalf("%s: column %d of the drained windows is a copy, not the table's column", op.Explain(), c)
			}
		}
		off, contig := got.Contig()
		switch _, filtered := op.(*Filter); {
		case !filtered && (!contig || off != 0 || got.Len() != 3*scanWindow):
			t.Fatalf("the scan's windows drained to %d rows at %d (contiguous %v), not the table's one window", got.Len(), off, contig)
		case filtered && (contig || len(got.Sel) != got.Len()):
			t.Fatalf("the filtered windows drained to %d rows (contiguous %v), not one selection vector", got.Len(), contig)
		}
	}
}
