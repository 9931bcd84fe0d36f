package colbatch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "b", Type: sqltypes.KindFloat},
		sqltypes.Column{Name: "c", Type: sqltypes.KindString},
		sqltypes.Column{Name: "d", Type: sqltypes.KindBool},
		sqltypes.Column{Name: "e", Type: sqltypes.KindInt}, // will receive mixed kinds
	)
}

// randRelation builds a relation with NULL-heavy columns and one
// deliberately kind-mixed column to exercise the Mixed fallback.
func randRelation(rng *rand.Rand, n int) *sqltypes.Relation {
	rel := sqltypes.NewRelation(testSchema())
	for i := 0; i < n; i++ {
		row := make(sqltypes.Row, 5)
		if rng.Intn(4) == 0 {
			row[0] = sqltypes.Null
		} else {
			row[0] = sqltypes.NewInt(rng.Int63n(100))
		}
		switch rng.Intn(5) {
		case 0:
			row[1] = sqltypes.Null
		case 1:
			row[1] = sqltypes.NewFloat(math.NaN())
		default:
			row[1] = sqltypes.NewFloat(rng.NormFloat64())
		}
		if rng.Intn(3) == 0 {
			row[2] = sqltypes.Null
		} else {
			row[2] = sqltypes.NewString([]string{"", "x", "hello", "wörld"}[rng.Intn(4)])
		}
		row[3] = sqltypes.NewBool(rng.Intn(2) == 0)
		switch rng.Intn(3) {
		case 0:
			row[4] = sqltypes.NewInt(rng.Int63n(10))
		case 1:
			row[4] = sqltypes.NewFloat(float64(rng.Int63n(10)))
		default:
			row[4] = sqltypes.NewString("m")
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// valuesIdentical compares values bit-exactly; float payloads compare by
// their IEEE bits so NaN == NaN and -0.0 != +0.0.
func valuesIdentical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

func relationsEqual(t *testing.T, a, b *sqltypes.Relation) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("row %d width %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if !valuesIdentical(a.Rows[i][j], b.Rows[i][j]) {
				t.Fatalf("cell (%d,%d): %#v vs %#v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 256, 1000} {
		rel := randRelation(rng, n)
		b := FromRelation(rel)
		if b.Len() != n {
			t.Fatalf("Len = %d, want %d", b.Len(), n)
		}
		relationsEqual(t, rel, b.ToRelation())
		if got, want := b.WireSize(), rel.ByteSize(); got != want {
			t.Fatalf("WireSize = %d, Relation.ByteSize = %d (n=%d)", got, want, n)
		}
	}
}

func TestSliceAndSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := randRelation(rng, 100)
	b := FromRelation(rel)

	s := b.Slice(10, 40)
	want := &sqltypes.Relation{Schema: rel.Schema, Rows: rel.Rows[10:40]}
	relationsEqual(t, want, s.ToRelation())
	if s.WireSize() != want.ByteSize() {
		t.Fatalf("slice WireSize = %d, want %d", s.WireSize(), want.ByteSize())
	}

	// Nested slice of a slice.
	s2 := s.Slice(5, 15)
	want2 := &sqltypes.Relation{Schema: rel.Schema, Rows: rel.Rows[15:25]}
	relationsEqual(t, want2, s2.ToRelation())

	// Selection over a slice composes into physical indices.
	sel := s.Select([]int32{0, 3, 29})
	wantSel := &sqltypes.Relation{Schema: rel.Schema, Rows: []sqltypes.Row{rel.Rows[10], rel.Rows[13], rel.Rows[39]}}
	relationsEqual(t, wantSel, sel.ToRelation())
	if sel.WireSize() != wantSel.ByteSize() {
		t.Fatalf("selected WireSize = %d, want %d", sel.WireSize(), wantSel.ByteSize())
	}

	// Slicing a selected batch.
	sel2 := sel.Slice(1, 3)
	wantSel2 := &sqltypes.Relation{Schema: rel.Schema, Rows: []sqltypes.Row{rel.Rows[13], rel.Rows[39]}}
	relationsEqual(t, wantSel2, sel2.ToRelation())
}

func TestMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randRelation(rng, 64)
	b := FromRelation(rel)
	if b.Materialize() != b {
		t.Fatal("Materialize of a contiguous batch should be a no-op")
	}
	s := b.Slice(8, 24).Select([]int32{1, 5, 5, 0})
	m := s.Materialize()
	if m.Sel != nil {
		t.Fatal("Materialize left a selection vector")
	}
	relationsEqual(t, s.ToRelation(), m.ToRelation())
	if m.WireSize() != s.WireSize() {
		t.Fatalf("materialized WireSize %d != view WireSize %d", m.WireSize(), s.WireSize())
	}
}

func TestBuilderMatchesFromRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := randRelation(rng, 128)
	bld := NewBuilder(rel.Schema)
	for _, row := range rel.Rows {
		bld.AppendRow(row)
	}
	if bld.Len() != 128 {
		t.Fatalf("Builder.Len = %d", bld.Len())
	}
	b := bld.Finish()
	relationsEqual(t, rel, b.ToRelation())
	if b.WireSize() != rel.ByteSize() {
		t.Fatalf("builder WireSize = %d, want %d", b.WireSize(), rel.ByteSize())
	}
}

func TestAccumulatorMatchesRowConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := randRelation(rng, 300)
	acc := NewAccumulator(rel.Schema)
	want := sqltypes.NewRelation(rel.Schema)
	full := FromRelation(rel)
	// Feed a mix of contiguous slices, selections, and empty windows.
	acc.Append(full.Slice(0, 0))
	for _, w := range []*Batch{
		full.Slice(0, 100),
		full.Slice(100, 150).Select([]int32{40, 3, 3, 0}),
		full.Slice(150, 300),
	} {
		acc.Append(w)
		wrel := w.ToRelation()
		want.Rows = append(want.Rows, wrel.Rows...)
	}
	got := acc.Finish()
	if got.Len() != acc.Len() {
		t.Fatalf("Finish len %d != acc len %d", got.Len(), acc.Len())
	}
	relationsEqual(t, want, got.ToRelation())
	if got.WireSize() != want.ByteSize() {
		t.Fatalf("accumulated WireSize %d != %d", got.WireSize(), want.ByteSize())
	}
}

func TestAccumulatorKindTransitions(t *testing.T) {
	sch := sqltypes.NewSchema(sqltypes.Column{Name: "x", Type: sqltypes.KindInt})
	mk := func(vals ...sqltypes.Value) *Batch {
		rel := sqltypes.NewRelation(sch)
		for _, v := range vals {
			rel.Rows = append(rel.Rows, sqltypes.Row{v})
		}
		return FromRelation(rel)
	}
	// NULL-only prefix, then ints, then a kind conflict forcing Mixed.
	acc := NewAccumulator(sch)
	acc.Append(mk(sqltypes.Null, sqltypes.Null))
	acc.Append(mk(sqltypes.NewInt(7), sqltypes.Null))
	acc.Append(mk(sqltypes.NewString("s")))
	got := acc.Finish().ToRelation()
	want := []sqltypes.Value{sqltypes.Null, sqltypes.Null, sqltypes.NewInt(7), sqltypes.Null, sqltypes.NewString("s")}
	if len(got.Rows) != len(want) {
		t.Fatalf("got %d rows", len(got.Rows))
	}
	for i, w := range want {
		if !valuesIdentical(got.Rows[i][0], w) {
			t.Fatalf("row %d = %#v, want %#v", i, got.Rows[i][0], w)
		}
	}
}

// TestAccumulatorCopiesOnceAtFinalSize: a lone batch comes back as the same
// batch, and a concatenation allocates every payload vector at exactly its
// final length (the old accumulator grew them by doubling, batch after batch).
func TestAccumulatorCopiesOnceAtFinalSize(t *testing.T) {
	rel := randRelation(rand.New(rand.NewSource(9)), 300)
	full := FromRelation(rel)
	lone := NewAccumulator(rel.Schema)
	lone.Append(full)
	if lone.Finish() != full {
		t.Fatal("a single appended batch must be returned uncopied")
	}
	var acc Accumulator // the zero value takes the first batch's schema
	for lo := 0; lo < 300; lo += 64 {
		acc.Append(full.Slice(lo, min(lo+64, 300)))
	}
	got := acc.Finish()
	relationsEqual(t, rel, got.ToRelation())
	for c, col := range got.Cols {
		for _, capacity := range []int{cap(col.Ints), cap(col.Floats), cap(col.Strs), cap(col.Bools), cap(col.Nulls), cap(col.Mixed)} {
			if capacity != 0 && capacity != 300 {
				t.Fatalf("column %d holds 300 cells in a vector of capacity %d", c, capacity)
			}
		}
	}
}

// TestToRelationBoxesIntoOneArray: the rows of a relation boxed from batches
// are consecutive slices of one cell array, capped so that growing a row
// cannot overwrite its neighbour, and several batches box to their rows'
// concatenation.
func TestToRelationBoxesIntoOneArray(t *testing.T) {
	rel := randRelation(rand.New(rand.NewSource(11)), 50)
	full := FromRelation(rel)
	got := ToRelation([]*Batch{full.Slice(0, 20), full.Slice(20, 20), full.Slice(20, 50).Select([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29})})
	relationsEqual(t, rel, got)
	for i := 1; i < len(got.Rows); i++ {
		prev, row := got.Rows[i-1], got.Rows[i]
		if cap(prev) != len(prev) {
			t.Fatalf("row %d has capacity %d beyond its %d cells", i-1, cap(prev), len(prev))
		}
		end := unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(prev[0]))
		if end != unsafe.Pointer(&row[0]) {
			t.Fatalf("row %d does not follow row %d in one array", i, i-1)
		}
	}
	next := got.Rows[1][0]
	grown := append(got.Rows[0], sqltypes.NewInt(-1))
	if !valuesIdentical(got.Rows[1][0], next) || len(grown) != len(rel.Rows[0])+1 {
		t.Fatal("appending to a row overwrote the next row's first cell")
	}
	if allocs := testing.AllocsPerRun(20, func() { full.ToRelation() }); allocs > 4 {
		t.Fatalf("boxing 50 rows took %.0f allocations; want the row headers, the cells and the relation", allocs)
	}
}

func TestTypedColumnConstructors(t *testing.T) {
	sch := sqltypes.NewSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "f", Type: sqltypes.KindFloat},
		sqltypes.Column{Name: "s", Type: sqltypes.KindString},
		sqltypes.Column{Name: "b", Type: sqltypes.KindBool},
		sqltypes.Column{Name: "n", Type: sqltypes.KindNull},
	)
	cols := []*Column{
		IntColumn([]int64{1, 0, 3}, []bool{false, true, false}),
		FloatColumn([]float64{1.5, 2.5, 0}, []bool{false, false, true}),
		StringColumn([]string{"a", "", "c"}, nil),
		BoolColumn([]bool{true, false, true}, nil),
		NullColumn(),
	}
	b := New(sch, cols, 3)
	want := &sqltypes.Relation{Schema: sch, Rows: []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewFloat(1.5), sqltypes.NewString("a"), sqltypes.NewBool(true), sqltypes.Null},
		{sqltypes.Null, sqltypes.NewFloat(2.5), sqltypes.NewString(""), sqltypes.NewBool(false), sqltypes.Null},
		{sqltypes.NewInt(3), sqltypes.Null, sqltypes.NewString("c"), sqltypes.NewBool(true), sqltypes.Null},
	}}
	relationsEqual(t, want, b.ToRelation())
	if b.WireSize() != want.ByteSize() {
		t.Fatalf("WireSize = %d, want %d", b.WireSize(), want.ByteSize())
	}
	for i := 0; i < 3; i++ {
		for c := range cols {
			if got, want := b.Value(i, c), want.Rows[i][c]; got != want {
				t.Fatalf("Value(%d,%d) = %#v, want %#v", i, c, got, want)
			}
		}
	}
	if !cols[0].IsNull(1) || cols[0].IsNull(0) || !cols[4].IsNull(2) {
		t.Fatal("IsNull wrong")
	}
}

// TestWindowsCutTheRowsInOrder: the windows of a batch, contiguous or
// selected, hold its rows in order, size rows each but the last, and an empty
// batch is one empty window.
func TestWindowsCutTheRowsInOrder(t *testing.T) {
	rel := randRelation(rand.New(rand.NewSource(13)), 70)
	full := FromRelation(rel)
	for _, b := range []*Batch{full, full.Slice(5, 65), full.Select([]int32{9, 3, 3, 60, 0, 41, 8})} {
		ws := b.Windows(16)
		if want := max(1, (b.Len()+15)/16); len(ws) != want {
			t.Fatalf("%d rows cut into %d windows, want %d", b.Len(), len(ws), want)
		}
		parts := make([]*Batch, len(ws))
		for i := range ws {
			if ws[i].Len() != min(16, b.Len()-16*i) {
				t.Fatalf("window %d holds %d rows", i, ws[i].Len())
			}
			parts[i] = &ws[i]
		}
		relationsEqual(t, b.ToRelation(), ToRelation(parts))
	}
	if ws := full.Slice(0, 0).Windows(16); len(ws) != 1 || ws[0].Len() != 0 {
		t.Fatalf("an empty batch cut into %d windows", len(ws))
	}
}

// TestAccumulatorJoinsViewsOfTheSameColumns: parts that all read the same
// columns come back as one view of them, copying no cell — adjacent windows
// (empty ones between them included) as one window, anything else as one
// selection vector, and no rows at all as an empty view that keeps the
// columns' kinds. A part over other columns makes Finish copy.
func TestAccumulatorJoinsViewsOfTheSameColumns(t *testing.T) {
	rel := randRelation(rand.New(rand.NewSource(17)), 90)
	full := FromRelation(rel)
	finish := func(parts ...*Batch) *Batch {
		var acc Accumulator
		want := sqltypes.NewRelation(rel.Schema)
		for _, p := range parts {
			acc.Append(p)
			want.Rows = append(want.Rows, p.ToRelation().Rows...)
		}
		got := acc.Finish()
		relationsEqual(t, want, got.ToRelation())
		return got
	}
	shares := func(b *Batch) bool {
		for c := range b.Cols {
			if b.Cols[c] != full.Cols[c] {
				return false
			}
		}
		return true
	}
	if b := finish(full.Slice(10, 30), full.Slice(30, 30), full.Slice(30, 90)); !shares(b) || b.Sel != nil || b.off != 10 {
		t.Fatalf("adjacent windows: shared %v, selection %v, offset %d", shares(b), b.Sel != nil, b.off)
	}
	if b := finish(full.Slice(0, 20), full.Slice(40, 50).Select([]int32{7, 2}), full.Slice(60, 61)); !shares(b) || len(b.Sel) != 23 {
		t.Fatalf("windows and selections: shared %v, %d selected", shares(b), len(b.Sel))
	}
	if b := finish(full.Select(nil), full.Slice(3, 3)); !shares(b) || b.Len() != 0 {
		t.Fatalf("empty views: shared %v, %d rows", shares(b), b.Len())
	}
	if b := finish(full.Slice(0, 20), FromRelation(rel).Slice(20, 40)); shares(b) {
		t.Fatal("parts over different columns were joined as views")
	}
}

// FuzzSelectionComposes builds random chains of Slice, Select, SelectOwned,
// Windows, Materialize and Accumulator over a random relation and checks
// every link against a row-slice model: the relation rows that the batch's
// logical rows stand for. Slices and windows start past row 0, so a
// SelectOwned after one takes the in-place offset path (after a Select, the
// in-place composition through the selection), and an Accumulator's
// parts mix windows, selections and copies of one set of columns with parts
// over columns of their own.
func FuzzSelectionComposes(f *testing.F) {
	f.Add(int64(1), uint16(40), []byte{0, 2, 3, 1, 4, 5})
	f.Add(int64(2), uint16(300), []byte{3, 2, 5, 0, 1, 5, 4, 2})
	f.Add(int64(3), uint16(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(4), uint16(1), []byte{5, 5, 2, 2, 3, 3})
	f.Add(int64(32), uint16(171), []byte{2, 5, 5, 1, 5, 5}) // selections and offset windows in one Accumulator
	f.Add(int64(5), uint16(200), []byte{1, 2, 0, 2, 2})     // SelectOwned composed through a selection, a sliced one and its own
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		rel := randRelation(rng, int(rows%600))
		b, model := FromRelation(rel), make([]int, len(rel.Rows))
		for i := range model {
			model[i] = i
		}
		// ascending draws a kernel's selection of n logical rows: ascending,
		// each row kept or not.
		ascending := func(n int) ([]int32, []int) {
			var sel []int32
			var rows []int
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel, rows = append(sel, int32(i)), append(rows, i)
				}
			}
			return sel, rows
		}
		pick := func(m, rows []int) []int {
			out := make([]int, len(rows))
			for i, r := range rows {
				out[i] = m[r]
			}
			return out
		}
		for step, op := range ops[:min(len(ops), 24)] {
			n := b.Len()
			name := ""
			switch op % 6 {
			case 0:
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				name = fmt.Sprintf("Slice(%d, %d)", lo, hi)
				b, model = b.Slice(lo, hi), model[lo:hi]
			case 1: // any rows, in any order, repeated
				sel, rows := make([]int32, rng.Intn(2*n+1)), make([]int, 0, 2*n)
				for i := range sel {
					r := rng.Intn(n)
					sel[i], rows = int32(r), append(rows, r)
				}
				name = fmt.Sprintf("Select(%d of %d)", len(sel), n)
				b, model = b.Select(sel), pick(model, rows)
			case 2:
				sel, rows := ascending(n)
				name = fmt.Sprintf("SelectOwned(%d of %d)", len(sel), n)
				b, model = b.SelectOwned(sel), pick(model, rows)
			case 3:
				size := 1 + rng.Intn(n+1)
				ws := b.Windows(size)
				covered := 0
				for _, w := range ws {
					covered += w.Len()
				}
				if covered != n || len(ws) != max(1, (n+size-1)/size) {
					t.Fatalf("step %d: Windows(%d) of %d rows: %d windows covering %d rows", step, size, n, len(ws), covered)
				}
				k := rng.Intn(len(ws))
				name = fmt.Sprintf("Windows(%d)[%d]", size, k)
				b, model = &ws[k], model[min(k*size, n):min((k+1)*size, n)]
			case 4:
				name = "Materialize"
				if b = b.Materialize(); b.Sel != nil {
					t.Fatalf("step %d: a materialized batch keeps a selection", step)
				}
			default:
				cuts := []int{0, n}
				for range rng.Intn(4) {
					cuts = append(cuts, rng.Intn(n+1))
				}
				slices.Sort(cuts)
				var acc Accumulator
				var joined []int
				for p := 1; p < len(cuts); p++ {
					lo, hi := cuts[p-1], cuts[p]
					part, rows := b.Slice(lo, hi), model[lo:hi]
					switch rng.Intn(3) {
					case 1:
						sel, kept := ascending(hi - lo)
						part, rows = part.SelectOwned(sel), pick(rows, kept)
					case 2:
						part = part.Materialize()
					}
					acc.Append(part)
					joined = append(joined, rows...)
				}
				name = fmt.Sprintf("Accumulator(%d rows)", len(joined))
				b, model = acc.Finish(), joined
			}
			if b.Len() != len(model) {
				t.Fatalf("step %d, %s: %d rows, the model %d", step, name, b.Len(), len(model))
			}
			for i, r := range model {
				for c := range b.Cols {
					if got, want := b.Value(i, c), rel.Rows[r][c]; !valuesIdentical(got, want) {
						t.Fatalf("step %d, %s: cell (%d, %d) is %#v, want row %d's %#v", step, name, i, c, got, r, want)
					}
				}
			}
			if got, want := b.WireSize(), b.ToRelation().ByteSize(); got != want {
				t.Fatalf("step %d, %s: WireSize %d, the rows' %d", step, name, got, want)
			}
		}
	})
}
