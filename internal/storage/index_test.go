package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
)

// buildIndex indexes vals by position; the tests read it as a view would.
func buildIndex(kind IndexKind, vals []int64) IndexView {
	keys := make([]sqltypes.Value, len(vals))
	for i, v := range vals {
		keys[i] = sqltypes.NewInt(v)
	}
	col := colbatch.NewColumn(keys)
	return IndexView{ix: insertEach(kind, col, len(keys)), col: col}
}

// insertEach is the incremental build CreateIndex ran before the bulk build:
// one sorted insert per cell of col, in position order. It is the reference
// the bulk build must reproduce.
func insertEach(kind IndexKind, col *colbatch.Column, n int) *Index {
	ix := &Index{name: "ix", column: "k", kind: kind, hash: map[uint64][]int32{}}
	for pos := 0; pos < n; pos++ {
		ix.insert(col, pos)
	}
	return ix
}

// removeLinear is Index.remove before it searched: the sorted entry is found
// by scanning the whole slice.
func removeLinear(ix *Index, col *colbatch.Column, pos int) {
	v := col.Value(pos)
	if v.IsNull() {
		return
	}
	h := v.Hash()
	list := ix.hash[h]
	for i, p := range list {
		if int(p) == pos {
			ix.hash[h] = append(list[:i], list[i+1:]...)
			ix.entries--
			break
		}
	}
	if ix.kind == IndexSorted {
		for i, e := range ix.sorted {
			if int(e) == pos {
				ix.sorted = append(ix.sorted[:i], ix.sorted[i+1:]...)
				break
			}
		}
	}
}

// sameContents reports how got's contents differ from want's: entries, the
// sorted list position for position and every hash list position for
// position.
func sameContents(got, want *Index) string {
	if got.entries != want.entries {
		return fmt.Sprintf("entries %d, want %d", got.entries, want.entries)
	}
	if !slices.Equal(got.sorted, want.sorted) {
		for i := range min(len(got.sorted), len(want.sorted)) {
			if got.sorted[i] != want.sorted[i] {
				return fmt.Sprintf("sorted[%d] = %d, want %d (lengths %d, %d)", i, got.sorted[i], want.sorted[i], len(got.sorted), len(want.sorted))
			}
		}
		return fmt.Sprintf("sorted has %d entries, want %d", len(got.sorted), len(want.sorted))
	}
	if len(got.hash) != len(want.hash) {
		return fmt.Sprintf("%d hash lists, want %d", len(got.hash), len(want.hash))
	}
	for h, list := range want.hash {
		if !slices.Equal(got.hash[h], list) {
			return fmt.Sprintf("hash list %x = %v, want %v", h, got.hash[h], list)
		}
	}
	return ""
}

// The bulk build (one sort) leaves exactly what inserting every row in
// position order leaves, for both kinds: the sorted list with equal keys
// newest first, every hash list and the entry count — over duplicates, NULLs,
// int/float twins (2 and 2.0 compare equal and hash alike) and strings.
func TestBulkBuildMatchesIncrementalBuild(t *testing.T) {
	columns := map[string]func(r *rand.Rand) sqltypes.Value{
		"duplicates-and-nulls": func(r *rand.Rand) sqltypes.Value {
			if r.Intn(6) == 0 {
				return sqltypes.Null
			}
			return sqltypes.NewInt(r.Int63n(40) - 10)
		},
		"twins-and-strings": func(r *rand.Rand) sqltypes.Value {
			k := r.Int63n(25)
			switch r.Intn(5) {
			case 0:
				return sqltypes.NewFloat(float64(k)) // the int k's twin
			case 1:
				return sqltypes.NewFloat(float64(k) + 0.5)
			case 2:
				return sqltypes.NewString(fmt.Sprintf("s%02d", k))
			case 3:
				return sqltypes.Null
			default:
				return sqltypes.NewInt(k)
			}
		},
	}
	for name, gen := range columns {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			keys := make([]sqltypes.Value, 1+r.Intn(3000))
			tab := NewTable("t", sqltypes.NewSchema(
				sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
				sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt},
			))
			for i := range keys {
				keys[i] = gen(r)
				if err := tab.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), keys[i]}); err != nil {
					t.Fatal(err)
				}
			}
			for _, kind := range []IndexKind{IndexHash, IndexSorted} {
				bulk, err := tab.CreateIndex(kind.String(), "k", kind)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameContents(bulk, insertEach(kind, colbatch.NewColumn(keys), len(keys))); diff != "" {
					t.Fatalf("%s seed %d %v over %d rows: %s", name, seed, kind, len(keys), diff)
				}
			}
		}
	}
}

// Index.remove finds a sorted entry by binary search to its key's run instead
// of scanning the whole slice. Removing and re-inserting positions of a
// 100k-entry index with heavy duplicates (and NULLs, which are not indexed)
// must leave what the old linear scan leaves, after every step. A third of
// the steps take a random position, a third the position the step before
// re-inserted (now the head of its key's run) and a third the tail of a
// random key's run.
func TestRemoveFindsWhatTheLinearScanFound(t *testing.T) {
	const n, steps = 100000, 300
	r := rand.New(rand.NewSource(5))
	key := func() sqltypes.Value {
		if r.Intn(50) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewInt(r.Int63n(100)) // ~1 000 duplicates per key
	}
	keys := make([]sqltypes.Value, n)
	for i := range keys {
		keys[i] = key()
	}
	col := colbatch.NewColumn(keys)
	searched, scanned := &Index{kind: IndexSorted}, &Index{kind: IndexSorted}
	searched.build(col, n) // the incremental build is quadratic at this size
	scanned.build(col, n)
	pos := 0
	for step := 0; step < steps; step++ {
		switch step % 3 {
		case 0:
			pos = r.Intn(n)
		case 2:
			if end := searched.lowerBound(col, sqltypes.NewInt(r.Int63n(100)+1)) - 1; end >= 0 {
				pos = int(searched.sorted[end])
			}
		}
		searched.remove(col, pos)
		removeLinear(scanned, col, pos)
		col.SetValue(n, pos, key())
		searched.insert(col, pos)
		scanned.insert(col, pos)
		if !slices.Equal(searched.sorted, scanned.sorted) {
			t.Fatalf("step %d (position %d): %s", step, pos, sameContents(searched, scanned))
		}
	}
	if diff := sameContents(searched, scanned); diff != "" {
		t.Fatal(diff)
	}
}

// sharesContents reports whether two index handles read one set of contents.
func sharesContents(a, b *Index) bool {
	return reflect.ValueOf(a.hash).UnsafePointer() == reflect.ValueOf(b.hash).UnsafePointer() &&
		unsafe.SliceData(a.sorted) == unsafe.SliceData(b.sorted)
}

// A copy shares the source's columns and every index's contents until a
// write: a table's first write clones the column it changes, and the contents
// of only the indexes on that column. Writes to either table leave the other
// as it was, and leave the written table exactly where the same writes leave a
// table built on its own.
func TestCopySharesUntilAWriteClonesWhatItEdits(t *testing.T) {
	indexed := func() *Table {
		tab := NewTable("t", sqltypes.NewSchema(
			sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
			sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindInt},
			sqltypes.Column{Table: "t", Name: "note", Type: sqltypes.KindFloat},
		))
		for i := 0; i < 100; i++ {
			if err := tab.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 7)), sqltypes.NewFloat(float64(i) / 2)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range []IndexGen{{"pk", "id", IndexSorted}, {"vh", "v", IndexHash}} {
			if _, err := tab.CreateIndex(ix.Name, ix.Column, ix.Kind); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	shared := func(a, b *Table) (cols []bool) {
		for i := range a.cols {
			cols = append(cols, a.cols[i] == b.cols[i])
		}
		return cols
	}
	update := func(tabs []*Table, i, col int, v sqltypes.Value) {
		t.Helper()
		for _, tab := range tabs {
			if err := tab.UpdateAt(i, col, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	src, twin := indexed(), indexed()
	cp := src.Copy()
	if !slices.Equal(shared(src, cp), []bool{true, true, true}) || read(src, View.Version) != read(cp, View.Version) {
		t.Fatal("the copy does not share the source's columns and version")
	}
	for name, ix := range src.indexes {
		if cp.indexes[name] == ix || !sharesContents(cp.indexes[name], ix) {
			t.Fatalf("index %s: the copy needs its own handle on the source's contents", name)
		}
	}
	keptRows, keptCols, version := read(src, View.Rows), slices.Clone(src.cols), read(src, View.Version)

	update([]*Table{cp, twin}, 5, 2, sqltypes.NewFloat(-1)) // unindexed
	if !slices.Equal(shared(src, cp), []bool{true, true, false}) {
		t.Fatal("a write to the copy must clone the column it changes and only that column")
	}
	if !sharesContents(cp.indexes["pk"], src.indexes["pk"]) || !sharesContents(cp.indexes["vh"], src.indexes["vh"]) {
		t.Fatal("a write to an unindexed column cloned an index")
	}
	update([]*Table{cp, twin}, 6, 1, sqltypes.NewInt(40)) // vh's column
	if !sharesContents(cp.indexes["pk"], src.indexes["pk"]) || sharesContents(cp.indexes["vh"], src.indexes["vh"]) {
		t.Fatal("a write to vh's column must clone vh and only vh")
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		col := r.Intn(3)
		v := sqltypes.NewInt(r.Int63n(30))
		if col == 2 {
			v = sqltypes.NewFloat(float64(r.Intn(30)))
		}
		update([]*Table{cp, twin}, r.Intn(100), col, v)
	}
	if got := read(src, View.Version); got != version {
		t.Fatalf("source version %d after updates to the copy, want %d", got, version)
	}
	if !slices.Equal(src.cols, keptCols) {
		t.Fatal("updates to the copy replaced a column of the source")
	}
	for i, row := range read(src, View.Rows) {
		if !slices.Equal(row, keptRows[i]) {
			t.Fatalf("source row %d changed to %v", i, row)
		}
	}
	for name, ix := range src.indexes {
		if diff := sameContents(ix, insertEach(ix.kind, keptCols[ix.colIdx], len(keptRows))); diff != "" {
			t.Fatalf("source index %s after updates to the copy: %s", name, diff)
		}
		if diff := sameContents(cp.indexes[name], twin.indexes[name]); diff != "" {
			t.Fatalf("the copy's index %s after the updates: %s", name, diff)
		}
	}
	if !slices.EqualFunc(read(cp, View.Rows), read(twin, View.Rows), slices.Equal) {
		t.Fatal("the copy's rows after the updates differ from the twin's")
	}

	// The source still marks its columns and pk shared: its own first write
	// clones them rather than edit what an earlier copy once read.
	cpRows := read(cp, View.Rows)
	update([]*Table{src}, 0, 0, sqltypes.NewInt(-5))
	if !slices.EqualFunc(read(cp, View.Rows), cpRows, slices.Equal) {
		t.Fatal("a write to the source changed the copy's rows")
	}
	if diff := sameContents(cp.indexes["pk"], twin.indexes["pk"]); diff != "" {
		t.Fatalf("a write to the source changed the copy's pk: %s", diff)
	}
}

func TestHashIndexLookupEq(t *testing.T) {
	ix := buildIndex(IndexHash, []int64{5, 3, 5, 9})
	got := ix.LookupEq(sqltypes.NewInt(5))
	slices.Sort(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("eq lookup: %v", got)
	}
	if got := ix.LookupEq(sqltypes.NewInt(42)); len(got) != 0 {
		t.Fatalf("miss: %v", got)
	}
	if got := ix.LookupEq(sqltypes.Null); got != nil {
		t.Fatal("null probe must return nil")
	}
}

func TestHashIndexNoRange(t *testing.T) {
	ix := buildIndex(IndexHash, []int64{1, 2, 3})
	lo := sqltypes.NewInt(1)
	if got := ix.LookupRange(&lo, nil, true, true); got != nil {
		t.Fatal("hash index must not serve ranges")
	}
}

func TestSortedIndexRange(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{10, 20, 30, 40, 50})
	lo, hi := sqltypes.NewInt(20), sqltypes.NewInt(40)
	got := ix.LookupRange(&lo, &hi, true, true)
	slices.Sort(got)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("range [20,40]: %v", got)
	}
	got = ix.LookupRange(&lo, &hi, false, false)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("range (20,40): %v", got)
	}
	got = ix.LookupRange(&lo, nil, false, true)
	slices.Sort(got)
	if len(got) != 3 {
		t.Fatalf("open-above range: %v", got)
	}
	got = ix.LookupRange(nil, &hi, true, false)
	slices.Sort(got)
	if len(got) != 3 {
		t.Fatalf("open-below range: %v", got)
	}
	hi2 := sqltypes.NewInt(5)
	if got := ix.LookupRange(nil, &hi2, true, true); got != nil {
		t.Fatalf("empty range: %v", got)
	}
}

func TestSortedIndexDuplicates(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{7, 7, 7, 1})
	got := ix.LookupEq(sqltypes.NewInt(7))
	if len(got) != 3 {
		t.Fatalf("dup eq: %v", got)
	}
	lo := sqltypes.NewInt(7)
	got = ix.LookupRange(&lo, &lo, true, true)
	if len(got) != 3 {
		t.Fatalf("dup range: %v", got)
	}
}

func TestIndexRemove(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{1, 2, 3})
	ix.ix.remove(ix.col, 1)
	if got := ix.LookupEq(sqltypes.NewInt(2)); len(got) != 0 {
		t.Fatalf("after remove: %v", got)
	}
	if ix.Len() != 2 {
		t.Fatalf("len after remove: %d", ix.Len())
	}
	lo, hi := sqltypes.NewInt(1), sqltypes.NewInt(3)
	if got := ix.LookupRange(&lo, &hi, true, true); len(got) != 2 {
		t.Fatalf("sorted after remove: %v", got)
	}
	// Removing a NULL cell or an absent position is a no-op.
	ix.ix.remove(colbatch.NewColumn([]sqltypes.Value{sqltypes.Null}), 0)
	ix.ix.remove(ix.col, 1)
	if ix.Len() != 2 {
		t.Fatalf("len after no-op removes: %d", ix.Len())
	}
}

func TestIndexNullsNotIndexed(t *testing.T) {
	ix := buildIndex(IndexSorted, nil)
	col := colbatch.NewColumn([]sqltypes.Value{sqltypes.Null, sqltypes.NewInt(1)})
	ix.ix.insert(col, 0)
	ix.ix.insert(col, 1)
	if ix.Len() != 1 {
		t.Fatalf("null must not be indexed: %d", ix.Len())
	}
}

// Property: sorted-index range lookup matches a linear scan filter.
func TestSortedIndexRangeMatchesScanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = r.Int63n(50)
	}
	ix := buildIndex(IndexSorted, vals)
	f := func(a, b int64) bool {
		lo, hi := a%50, b%50
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		lov, hiv := sqltypes.NewInt(lo), sqltypes.NewInt(hi)
		got := ix.LookupRange(&lov, &hiv, true, true)
		want := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCreateIndex times building one index over 10k and 100k rows of
// uniform random integer keys (about ten rows per key).
func BenchmarkCreateIndex(b *testing.B) {
	schema := sqltypes.NewSchema(sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt})
	for _, n := range []int{10000, 100000} {
		r := rand.New(rand.NewSource(1))
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(r.Int63n(int64(n / 10)))}
		}
		for _, kind := range []IndexKind{IndexSorted, IndexHash} {
			b.Run(fmt.Sprintf("%v/%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tab := NewTable("t", schema)
					if err := tab.Append(rows...); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := tab.CreateIndex("ix", "k", kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexHash.String() != "HASH" || IndexSorted.String() != "SORTED" {
		t.Fatal("kind names")
	}
}
