package storage

import (
	"encoding/binary"
	"math"
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

func TestTableAppendScan(t *testing.T) {
	tab := newTestTable(t)
	if tab.RowCount() != 100 {
		t.Fatalf("rowcount %d", tab.RowCount())
	}
	n := 0
	sum := int64(0)
	err := tab.Scan(func(r sqltypes.Row) error {
		n++
		sum += r[0].Int()
		return nil
	})
	if err != nil || n != 100 || sum != 4950 {
		t.Fatalf("scan n=%d sum=%d err=%v", n, sum, err)
	}
}

func TestTableAppendArityMismatch(t *testing.T) {
	tab := newTestTable(t)
	if err := tab.Append(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestTableRowAccessAndBounds(t *testing.T) {
	tab := newTestTable(t)
	r, err := tab.Row(5)
	if err != nil || r[0].Int() != 5 {
		t.Fatalf("row 5: %v %v", r, err)
	}
	if _, err := tab.Row(-1); err == nil {
		t.Fatal("negative index")
	}
	if _, err := tab.Row(100); err == nil {
		t.Fatal("past end")
	}
}

func TestTableUpdateAtBumpsVersionAndMaintainsIndex(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("t_id", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	v0 := tab.Version()
	if err := tab.UpdateAt(3, 0, sqltypes.NewInt(999)); err != nil {
		t.Fatal(err)
	}
	if tab.Version() <= v0 {
		t.Fatal("version must bump")
	}
	idx := tab.Index("t_id")
	if got := idx.LookupEq(sqltypes.NewInt(999)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("index after update: %v", got)
	}
	if got := idx.LookupEq(sqltypes.NewInt(3)); len(got) != 0 {
		t.Fatalf("stale entry: %v", got)
	}
	if err := tab.UpdateAt(1000, 0, sqltypes.NewInt(1)); err == nil {
		t.Fatal("row bound")
	}
	if err := tab.UpdateAt(0, 9, sqltypes.NewInt(1)); err == nil {
		t.Fatal("col bound")
	}
}

func TestTableSnapshotIsolation(t *testing.T) {
	tab := newTestTable(t)
	snap := tab.Snapshot()
	if err := tab.UpdateAt(0, 0, sqltypes.NewInt(-7)); err != nil {
		t.Fatal(err)
	}
	if snap[0][0].Int() != 0 {
		t.Fatal("snapshot must not see later updates")
	}
}

func TestTablePages(t *testing.T) {
	tab := newTestTable(t)
	if tab.Pages() < 1 {
		t.Fatal("pages must be >=1 for non-empty table")
	}
	empty := NewTable("e", sqltypes.NewSchema(sqltypes.Column{Name: "x", Type: sqltypes.KindInt}))
	if empty.Pages() != 0 {
		t.Fatal("empty table pages")
	}
}

// Pages is memoized per table version: a memoized count must not outlive an
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
		for _, r := range tab.Snapshot() {
			bytes += r.ByteSize()
		}
		return bytes / PageSize
	}
	if err := tab.Append(wide(200)...); err != nil {
		t.Fatal(err)
	}
	first := tab.Pages()
	if first < 2 || first != summed() || tab.Pages() != first {
		t.Fatalf("pages %d, then %d; rows sum to %d", first, tab.Pages(), summed())
	}
	if err := tab.Append(wide(200)...); err != nil {
		t.Fatal(err)
	}
	if got := tab.Pages(); got <= first || got != summed() {
		t.Fatalf("after Append: pages %d (was %d), rows sum to %d", got, first, summed())
	}
	grown := tab.Pages()
	if err := tab.UpdateAt(0, 0, sqltypes.NewString(strings.Repeat("y", 3*PageSize))); err != nil {
		t.Fatal(err)
	}
	if got := tab.Pages(); got <= grown || got != summed() {
		t.Fatalf("after UpdateAt: pages %d (was %d), rows sum to %d", got, grown, summed())
	}
	tab.SetVirtualStats(&stats.TableStats{Table: "p", RowCount: 1000, AvgRowBytes: PageSize})
	if got := tab.Pages(); got != 1000 {
		t.Fatalf("after SetVirtualStats: pages %d, want 1000 from the injected statistics", got)
	}
}

func TestTableStatsCaching(t *testing.T) {
	tab := newTestTable(t)
	s1 := tab.Stats()
	s2 := tab.Stats()
	if s1 != s2 {
		t.Fatal("stats should be cached while clean")
	}
	if err := tab.UpdateAt(0, 1, sqltypes.NewFloat(1e9)); err != nil {
		t.Fatal(err)
	}
	s3 := tab.Stats()
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
		ts := tab.Stats()
		cols, rows := tab.Columns()
		sum := 0.0
		for c, col := range schema.Columns {
			shipped := 0
			for lo := 0; lo < rows; lo += wireBatchRows {
				b := colbatch.New(sqltypes.NewSchema(col), cols[c:c+1], rows).Slice(lo, min(lo+wireBatchRows, rows))
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
	if ts := NewTable("empty", schema).Stats(); ts.WireRowBytes != 0 {
		t.Errorf("empty table: WireRowBytes %v", ts.WireRowBytes)
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
	idx := tab.IndexOnColumn("id")
	if idx == nil || idx.Kind() != IndexSorted {
		t.Fatalf("want sorted index, got %v", idx)
	}
	if tab.IndexOnColumn("v") != nil {
		t.Fatal("no index on v")
	}
	names := tab.Indexes()
	if len(names) != 2 || names[0] != "h" || names[1] != "s" {
		t.Fatalf("index names: %v", names)
	}
}

// TestColumnsConcurrentWithUpdates scans columns from several goroutines
// while another mutates the table: every scan must see a full-length
// decomposition, and once the writer is done a fresh scan must see its last
// write (no stale memo survives a version bump). Run under -race.
func TestColumnsConcurrentWithUpdates(t *testing.T) {
	tab := newTestTable(t)
	const writes = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if cols, n := tab.Columns(); n != 100 || len(cols) != 2 {
					t.Errorf("scan saw %d rows in %d columns", n, len(cols))
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
	cols, _ := tab.Columns()
	if got := cols[1].Floats[7]; got != writes-1 {
		t.Fatalf("scan after the last update read %v, want %d", got, writes-1)
	}
}
