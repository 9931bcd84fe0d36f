package storage

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindFloat},
	)
	tab := NewTable("t", schema)
	var rows []sqltypes.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) * 1.5)})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

// read returns what fn reads through one view of tab.
func read[T any](tab *Table, fn func(View) T) T {
	v := tab.View()
	defer v.Close()
	return fn(v)
}

func TestTableAppendScan(t *testing.T) {
	tab := newTestTable(t)
	v := tab.View()
	defer v.Close()
	if v.RowCount() != 100 {
		t.Fatalf("rowcount %d", v.RowCount())
	}
	n := 0
	sum := int64(0)
	for _, r := range v.Rows() {
		n++
		sum += r[0].Int()
	}
	if n != 100 || sum != 4950 {
		t.Fatalf("scan n=%d sum=%d", n, sum)
	}
}

func TestTableAppendArityMismatch(t *testing.T) {
	tab := newTestTable(t)
	if err := tab.Append(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

// TestTableAppendRefusesRowsPastTheRowBound: a row position is an int32, so
// a table refuses an append that would take it past colbatch.MaxRows rows and
// changes nothing. The bound is checked on the counts: no test allocates 2^31
// rows.
func TestTableAppendRefusesRowsPastTheRowBound(t *testing.T) {
	for _, c := range []struct {
		rows, adding int
		fits         bool
	}{
		{0, colbatch.MaxRows, true},
		{colbatch.MaxRows - 1, 1, true},
		{colbatch.MaxRows, 0, true},
		{colbatch.MaxRows, 1, false},
		{1, colbatch.MaxRows, false},
		{colbatch.MaxRows, math.MaxInt, false}, // no overflow to a small total
	} {
		if err := rowsFit("t", c.rows, c.adding); (err == nil) != c.fits {
			t.Errorf("%d rows + %d: error %v, want fits=%v", c.rows, c.adding, err, c.fits)
		}
	}
	tab := newTestTable(t)
	tab.rows = colbatch.MaxRows // as if it held them: Append checks before it writes
	version := tab.version
	if err := tab.Append(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewFloat(1)}); err == nil {
		t.Fatal("an append past the row bound must fail")
	}
	if tab.rows != colbatch.MaxRows || tab.version != version || len(tab.cols[0].Ints) != 100 {
		t.Fatalf("a refused append changed the table: %d rows, version %d, %d cells", tab.rows, tab.version, len(tab.cols[0].Ints))
	}
}

func TestTableRowAccessAndBounds(t *testing.T) {
	tab := newTestTable(t)
	v := tab.View()
	rows := v.Rows()
	if r := rows[5]; r[0].Int() != 5 {
		t.Fatalf("row 5: %v", r)
	}
	if len(rows) != v.RowCount() || cap(rows) < len(rows) {
		t.Fatalf("%d rows, RowCount %d", len(rows), v.RowCount())
	}
	v.Close()
	if err := tab.UpdateAt(-1, 0, sqltypes.NewInt(1)); err == nil {
		t.Fatal("negative index")
	}
	if err := tab.UpdateAt(100, 0, sqltypes.NewInt(1)); err == nil {
		t.Fatal("past end")
	}
}

func TestTableUpdateAtBumpsVersionAndMaintainsIndex(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("t_id", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	v0 := read(tab, View.Version)
	if err := tab.UpdateAt(3, 0, sqltypes.NewInt(999)); err != nil {
		t.Fatal(err)
	}
	v := tab.View()
	if v.Version() <= v0 {
		t.Fatal("version must bump")
	}
	idx, err := v.Index(v.Indexes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.LookupEq(sqltypes.NewInt(999)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("index after update: %v", got)
	}
	if got := idx.LookupEq(sqltypes.NewInt(3)); len(got) != 0 {
		t.Fatalf("stale entry: %v", got)
	}
	if idx.Len() != 100 {
		t.Fatalf("index holds %d entries after an update in place, want 100", idx.Len())
	}
	v.Close()
	if err := tab.UpdateAt(1000, 0, sqltypes.NewInt(1)); err == nil {
		t.Fatal("row bound")
	}
	if err := tab.UpdateAt(0, 9, sqltypes.NewInt(1)); err == nil {
		t.Fatal("col bound")
	}
}

// Stored rows are immutable: a row kept from a closed view must not see a
// later update, which swaps a modified copy into the table.
func TestTableSnapshotIsolation(t *testing.T) {
	tab := newTestTable(t)
	kept := read(tab, View.Rows)[0]
	if err := tab.UpdateAt(0, 0, sqltypes.NewInt(-7)); err != nil {
		t.Fatal(err)
	}
	if kept[0].Int() != 0 {
		t.Fatal("a row kept from a view must not see later updates")
	}
	if now := read(tab, View.Rows)[0]; now[0].Int() != -7 || now[1] != kept[1] {
		t.Fatalf("row after the update: %v", now)
	}
}

func TestTablePages(t *testing.T) {
	tab := newTestTable(t)
	if read(tab, View.Pages) < 1 {
		t.Fatal("pages must be >=1 for non-empty table")
	}
	empty := NewTable("e", sqltypes.NewSchema(sqltypes.Column{Name: "x", Type: sqltypes.KindInt}))
	if read(empty, View.Pages) != 0 {
		t.Fatal("empty table pages")
	}
}

// Pages is computed once per table version: a count must not outlive an
// Append, an UpdateAt or a switch to injected statistics.
func TestTablePagesTracksMutations(t *testing.T) {
	tab := NewTable("p", sqltypes.NewSchema(sqltypes.Column{Table: "p", Name: "s", Type: sqltypes.KindString}))
	wide := func(n int) []sqltypes.Row {
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewString(strings.Repeat("x", 100))}
		}
		return rows
	}
	summed := func() int {
		bytes := 0
		for _, r := range read(tab, View.Rows) {
			bytes += r.ByteSize()
		}
		return bytes / PageSize
	}
	pages := func() int { return read(tab, View.Pages) }
	if err := tab.Append(wide(200)...); err != nil {
		t.Fatal(err)
	}
	first := pages()
	if first < 2 || first != summed() || pages() != first {
		t.Fatalf("pages %d, then %d; rows sum to %d", first, pages(), summed())
	}
	if err := tab.Append(wide(200)...); err != nil {
		t.Fatal(err)
	}
	if got := pages(); got <= first || got != summed() {
		t.Fatalf("after Append: pages %d (was %d), rows sum to %d", got, first, summed())
	}
	grown := pages()
	if err := tab.UpdateAt(0, 0, sqltypes.NewString(strings.Repeat("y", 3*PageSize))); err != nil {
		t.Fatal(err)
	}
	if got := pages(); got <= grown || got != summed() {
		t.Fatalf("after UpdateAt: pages %d (was %d), rows sum to %d", got, grown, summed())
	}
	tab.SetVirtualStats(&stats.TableStats{Table: "p", RowCount: 1000, AvgRowBytes: PageSize})
	if got := pages(); got != 1000 {
		t.Fatalf("after SetVirtualStats: pages %d, want 1000 from the injected statistics", got)
	}
}

func TestTableStatsCaching(t *testing.T) {
	tab := newTestTable(t)
	s1 := read(tab, View.Stats)
	s2 := read(tab, View.Stats)
	if s1 != s2 {
		t.Fatal("stats should be cached while clean")
	}
	if err := tab.UpdateAt(0, 1, sqltypes.NewFloat(1e9)); err != nil {
		t.Fatal(err)
	}
	s3 := read(tab, View.Stats)
	if s3 == s1 {
		t.Fatal("stats must refresh after mutation")
	}
	if s3.Column("v").Max.Float() != 1e9 {
		t.Fatal("refreshed stats must see the update")
	}
}

// Stats sizes every column with the wire's own encoder: WireBytes times the
// row count is, to the byte, what colbatch.Encode spends on the column when
// the table ships in integrator-size batches, NULLs, dictionaries and a table
// mutation included; WireRowBytes is the columns' sum and survives Clone.
func TestStatsWireBytesAreTheEncoders(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "seq", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "nullable", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "price", Type: sqltypes.KindFloat},
		sqltypes.Column{Table: "t", Name: "flag", Type: sqltypes.KindBool},
		sqltypes.Column{Table: "t", Name: "tag", Type: sqltypes.KindString},
		sqltypes.Column{Table: "t", Name: "comment", Type: sqltypes.KindString},
	)
	tab := NewTable("t", schema)
	const n = 1000 // three full batches and a short one
	for i := 0; i < n; i++ {
		nullable := sqltypes.NewInt(int64(i * 7919 % 1000))
		if i%4 == 0 {
			nullable = sqltypes.Null
		}
		if err := tab.Append(sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)), nullable, sqltypes.NewFloat(float64(i) / 3), sqltypes.NewBool(i%3 == 0),
			sqltypes.NewString([]string{"std", "exp", "bulk", "promo"}[i%4]),
			sqltypes.NewString("order comment " + sqltypes.NewInt(int64(i)).String()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		v := tab.View()
		defer v.Close()
		ts, cols, rows := v.Stats(), v.Columns(), v.RowCount()
		sum := 0.0
		for c, col := range schema.Columns {
			shipped := 0
			for lo := 0; lo < rows; lo += colbatch.ShipBatchRows {
				b := colbatch.New(sqltypes.NewSchema(col), cols[c:c+1], rows).Slice(lo, min(lo+colbatch.ShipBatchRows, rows))
				// A batch's header: magic, version, column count, row count.
				shipped += colbatch.Encode(b).WireBytes() - 3 - uvarintLen(b.Len())
			}
			if got := ts.Column(col.Name).WireBytes * float64(rows); math.Abs(got-float64(shipped)) > 1e-6 {
				t.Errorf("%s: WireBytes says %.1f B, the encoder wrote %d B", col.Name, got, shipped)
			}
			sum += ts.Column(col.Name).WireBytes
		}
		if sum != ts.WireRowBytes {
			t.Errorf("WireRowBytes %v is not the sum of the columns' WireBytes %v", ts.WireRowBytes, sum)
		}
		if clone := ts.Clone(); clone.WireRowBytes != ts.WireRowBytes || clone.Column("tag").WireBytes != ts.Column("tag").WireBytes {
			t.Error("Clone dropped the wire widths")
		}
	}
	check()
	if err := tab.UpdateAt(5, 4, sqltypes.NewString("a tag nobody else carries")); err != nil {
		t.Fatal(err)
	}
	check()
	if ts := read(NewTable("empty", schema), View.Stats); ts.WireRowBytes != 0 {
		t.Errorf("empty table: WireRowBytes %v", ts.WireRowBytes)
	}
}

// Copy costs the same whatever the table holds: copying an indexed 1k-row and
// an indexed 10k-row table allocates the same bytes, under 4 KiB — handles,
// not rows or index contents.
func TestCopyCostIsIndependentOfTheRows(t *testing.T) {
	copyBytes := func(n int) uint64 {
		tab := NewTable("t", sqltypes.NewSchema(
			sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
			sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt},
		))
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 97))}
		}
		if err := tab.Append(rows...); err != nil {
			t.Fatal(err)
		}
		for _, ix := range []IndexGen{{Name: "pk", Column: "id", Kind: IndexSorted}, {Name: "kh", Column: "k", Kind: IndexHash}} {
			if _, err := tab.CreateIndex(ix.Name, ix.Column, ix.Kind); err != nil {
				t.Fatal(err)
			}
		}
		best := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			tab.Copy()
			runtime.ReadMemStats(&ms)
			best = min(best, ms.TotalAlloc-before)
		}
		return best
	}
	small, large := copyBytes(1000), copyBytes(10000)
	if small != large || large >= 4096 {
		t.Fatalf("Copy allocates %d B of a 1k-row table and %d B of a 10k-row one, want the same under 4 KiB", small, large)
	}
}

// An update to an unindexed column leaves statistics bit for bit equal to
// collecting them from scratch, wire widths included, and re-derives only the
// column it changed: the next scan rebuilds that one column and the other
// columns keep their statistics.
func TestUpdateRederivesOnlyTheColumnItChanged(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "amount", Type: sqltypes.KindFloat},
		sqltypes.Column{Table: "t", Name: "tag", Type: sqltypes.KindString},
	)
	tab := NewTable("t", schema)
	for i := 0; i < 700; i++ {
		tag := sqltypes.NewString([]string{"std", "exp", "bulk"}[i%3])
		if i%11 == 0 {
			tag = sqltypes.Null
		}
		if err := tab.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 7), tag}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.CreateIndex("pk", "id", IndexSorted); err != nil {
		t.Fatal(err)
	}
	scratch := func() *stats.TableStats {
		v := tab.View()
		defer v.Close()
		ts := stats.Collect("t", schema, v.Rows())
		cols := colbatch.FromRelation(&sqltypes.Relation{Schema: schema, Rows: v.Rows()}).Cols
		for i, col := range schema.Columns {
			cs := ts.Columns[col.Name]
			cs.WireBytes = float64(colbatch.ColumnWireBytes(cols[i], v.RowCount(), colbatch.ShipBatchRows)) / float64(v.RowCount())
			ts.WireRowBytes += cs.WireBytes
		}
		return ts
	}
	beforeStats, beforeCols := read(tab, View.Stats), read(tab, View.Columns)
	for step, v := range []sqltypes.Value{sqltypes.NewFloat(1e9), sqltypes.Null, sqltypes.NewFloat(-3)} {
		if err := tab.UpdateAt(40+step, 1, v); err != nil {
			t.Fatal(err)
		}
		if got, want := read(tab, View.Stats), scratch(); !reflect.DeepEqual(got, want) {
			t.Fatalf("update %d: statistics\n%+v\nwant, from scratch,\n%+v", step, got, want)
		}
		ts, cols := read(tab, View.Stats), read(tab, View.Columns)
		for i, col := range schema.Columns {
			if rebuilt := cols[i] != beforeCols[i]; rebuilt != (i == 1) {
				t.Fatalf("update %d: column %s rebuilt %v", step, col.Name, rebuilt)
			}
			if recollected := ts.Column(col.Name) != beforeStats.Column(col.Name); recollected != (i == 1) {
				t.Fatalf("update %d: column %s's statistics recollected %v", step, col.Name, recollected)
			}
		}
		beforeStats, beforeCols = ts, cols
	}
}

func uvarintLen(n int) int {
	return len(binary.AppendUvarint(nil, uint64(n)))
}

func TestCreateIndexDuplicateAndUnknownColumn(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("i1", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("i1", "id", IndexHash); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if _, err := tab.CreateIndex("i2", "nope", IndexHash); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestIndexOnColumnPrefersSorted(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("h", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("s", "id", IndexSorted); err != nil {
		t.Fatal(err)
	}
	indexes := read(tab, View.Indexes)
	idx := IndexOnColumn(indexes, "id")
	if idx == nil || idx.Kind() != IndexSorted {
		t.Fatalf("want sorted index, got %v", idx)
	}
	if IndexOnColumn(indexes, "v") != nil {
		t.Fatal("no index on v")
	}
	if len(indexes) != 2 || indexes[0].Name() != "h" || indexes[1].Name() != "s" {
		t.Fatalf("indexes out of name order: %v", indexes)
	}
}

// TestColumnsConcurrentWithUpdates scans columns from several goroutines
// while another mutates the table: every scan must see a full-length
// decomposition, and once the writer is done a fresh scan must see its last
// write (no stale decomposition survives a version bump). Run under -race.
func TestColumnsConcurrentWithUpdates(t *testing.T) {
	tab := newTestTable(t)
	const writes = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				v := tab.View()
				cols, n := v.Columns(), v.RowCount()
				v.Close()
				if n != 100 || len(cols) != 2 || len(cols[0].Ints) != n {
					t.Errorf("scan saw %d rows in %d columns of %d values", n, len(cols), len(cols[0].Ints))
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := tab.UpdateAt(7, 1, sqltypes.NewFloat(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	cols := read(tab, View.Columns)
	if got := cols[1].Floats[7]; got != writes-1 {
		t.Fatalf("scan after the last update read %v, want %d", got, writes-1)
	}
}

// A burst of updates to one column between two views clones that column once:
// the first write copies the column the last view handed out, the rest edit
// the copy in place. 20 UpdateAts on a 10k-row float column allocate about
// one column, not 20, and every column a view handed out reads bit for bit
// what it read then, however many writes followed.
func TestUpdateBurstClonesAColumnOnce(t *testing.T) {
	const n, burst = 10000, 20
	tab := NewTable("t", sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "amount", Type: sqltypes.KindFloat},
	))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 3)}
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	var handed, kept [][]*colbatch.Column
	for round := 0; round < 3; round++ {
		cols := read(tab, View.Columns)
		handed = append(handed, cols)
		kept = append(kept, []*colbatch.Column{cols[0].Clone(0), cols[1].Clone(0)})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < burst; i++ {
			if err := tab.UpdateAt(i*487, 1, sqltypes.NewFloat(-float64(round*burst+i))); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		if column := uint64(n * 8); ms.TotalAlloc-before > column*3/2 {
			t.Fatalf("round %d: %d updates allocated %d B, a column is %d B", round, burst, ms.TotalAlloc-before, column)
		}
		if next := read(tab, View.Columns); next[0] != cols[0] || next[1] == cols[1] {
			t.Fatalf("round %d: the burst must clone the column it wrote and only that column", round)
		}
	}
	for round := range handed {
		for c := range handed[round] {
			if !reflect.DeepEqual(handed[round][c], kept[round][c]) {
				t.Fatalf("column %d handed out before round %d changed after later writes", c, round)
			}
		}
	}
}
