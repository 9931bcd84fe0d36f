package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// TestSampleSchemaStorageGoldens pins what the cost and timing models read
// from storage — page counts, statistics and per-column wire widths — on the
// sample schema at the seed bench/ generates with. The literals were captured
// at the commit before Table.View existed: never re-capture them to make a
// change pass.
func TestSampleSchemaStorageGoldens(t *testing.T) {
	const want = `orders pages=21 rows=2000 avg=44 wire=12.200000000000001
  o_id wire=1.0155 distinct=2000 nulls=0 min=0 max=1999
  o_custkey wire=1.012 distinct=20 nulls=0 min=0 max=19
  o_amount wire=8.012 distinct=2000 nulls=0 min=1.421081374308709 max=9997.482568207744
  o_priority wire=1.012 distinct=5 nulls=0 min=0 max=4
  o_qty wire=1.1485 distinct=100 nulls=0 min=0 max=99
lineitem pages=20 rows=2000 avg=41.745 wire=12.334000000000001
  l_id wire=1.0155 distinct=2000 nulls=0 min=0 max=1999
  l_orderkey wire=1.9525 distinct=1269 nulls=0 min=0 max=1996
  l_qty wire=1.012 distinct=50 nulls=0 min=0 max=49
  l_price wire=8.012 distinct=2000 nulls=0 min=1.5506737009113123 max=999.6199144717244
  l_tag wire=0.342 distinct=4 nulls=0 min='bulk' max='std'
customer pages=1 rows=20 avg=27 wire=10.95
  c_id wire=1.15 distinct=20 nulls=0 min=0 max=19
  c_segment wire=1.65 distinct=4 nulls=0 min='auto' max='machine'
  c_discount wire=8.15 distinct=20 nulls=0 min=0.005453746816659101 max=0.19316381319049333
parts pages=1 rows=20 avg=25.6 wire=11
  p_id wire=1.15 distinct=20 nulls=0 min=0 max=19
  p_type wire=1.7 distinct=5 nulls=0 min='bolt' max='rod'
  p_weight wire=8.15 distinct=20 nulls=0 min=0.5486731548158678 max=39.62446459666723
`
	var got strings.Builder
	for _, g := range SampleSchema(50) {
		tab, err := g.Generate(42)
		if err != nil {
			t.Fatal(err)
		}
		v := tab.View()
		ts := v.Stats()
		fmt.Fprintf(&got, "%s pages=%d rows=%d avg=%v wire=%v\n", tab.Name(), v.Pages(), ts.RowCount, ts.AvgRowBytes, ts.WireRowBytes)
		for _, c := range tab.Schema().Columns {
			cs := ts.Column(c.Name)
			fmt.Fprintf(&got, "  %s wire=%v distinct=%d nulls=%d min=%v max=%v\n", c.Name, cs.WireBytes, cs.Distinct, cs.NullCount, cs.Min, cs.Max)
		}
		v.Close()
	}
	if got.String() != want {
		t.Fatalf("storage numbers moved:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestViewMatchesAFreshTable is the derived record's property: after any
// seeded sequence of Append, UpdateAt and CreateIndex — with reads in between,
// so that pages, statistics and columns computed at earlier versions exist to
// go stale — a view reads exactly what a view of a table freshly built from
// the same rows and index definitions reads.
func TestViewMatchesAFreshTable(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "p", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "p", Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "p", Name: "f", Type: sqltypes.KindFloat},
		sqltypes.Column{Table: "p", Name: "s", Type: sqltypes.KindString},
	)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cell := func(col int) sqltypes.Value {
			switch {
			case col > 0 && rng.Intn(8) == 0:
				return sqltypes.Null
			case col < 2:
				return sqltypes.NewInt(rng.Int63n(12))
			case col == 2:
				return sqltypes.NewFloat(float64(rng.Intn(40)) / 4)
			default:
				return sqltypes.NewString(strings.Repeat("x", rng.Intn(300)))
			}
		}
		tab := NewTable("p", schema)
		var defs []IndexGen
		for step := 0; step < 60; step++ {
			n := read(tab, View.RowCount)
			switch op := rng.Intn(10); {
			case op < 3 || n == 0:
				rows := make([]sqltypes.Row, 1+rng.Intn(5))
				for i := range rows {
					rows[i] = sqltypes.Row{cell(0), cell(1), cell(2), cell(3)}
				}
				if err := tab.Append(rows...); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				col := rng.Intn(4)
				if err := tab.UpdateAt(rng.Intn(n), col, cell(col)); err != nil {
					t.Fatal(err)
				}
			case len(defs) < 4:
				def := IndexGen{Name: fmt.Sprintf("ix%d", len(defs)), Column: schema.Columns[rng.Intn(3)].Name, Kind: IndexKind(rng.Intn(2))}
				if _, err := tab.CreateIndex(def.Name, def.Column, def.Kind); err != nil {
					t.Fatal(err)
				}
				defs = append(defs, def)
			}
			// Read some of the derived state at this version, sometimes through
			// a columnar scan's door, so that later versions have it to drop.
			v := tab.View()
			switch rng.Intn(4) {
			case 0:
				v.Pages()
			case 1:
				v.Stats()
			case 2:
				v.Columns()
			}
			v.Close()
			if step%10 != 9 {
				continue
			}

			fresh := NewTable("p", schema)
			if err := fresh.Append(read(tab, View.Rows)...); err != nil {
				t.Fatal(err)
			}
			for _, def := range defs {
				if _, err := fresh.CreateIndex(def.Name, def.Column, def.Kind); err != nil {
					t.Fatal(err)
				}
			}
			requireSameView(t, fmt.Sprintf("seed %d, step %d", seed, step), tab, fresh, rng)
		}
	}
}

// TestCopiesMatchTwinsGivenTheSameWrites is TestViewMatchesAFreshTable over
// copies: a seeded schedule of Copy, UpdateAt (indexed and unindexed
// columns), Append and CreateIndex over a handful of tables that copy one
// another, with reads in between. After every step each table reads exactly
// what a twin built on its own from the same writes reads — rows, version,
// every index's sorted order and hash lists, statistics, pages and columns.
// Readers scan every other table during each write (run it under -race): no
// write may reach a slice, map or list another table reads.
func TestCopiesMatchTwinsGivenTheSameWrites(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "p", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "p", Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "p", Name: "f", Type: sqltypes.KindFloat},
		sqltypes.Column{Table: "p", Name: "s", Type: sqltypes.KindString},
	)
	scan := func(tab *Table) {
		v := tab.View()
		defer v.Close()
		v.Columns()
		v.Stats()
		for _, ix := range v.Indexes() {
			iv, err := v.Index(ix)
			if err != nil {
				t.Error(err) // on a reader's goroutine
				return
			}
			iv.LookupRange(nil, nil, true, true)
			for _, row := range v.Rows() {
				iv.LookupEq(row[ix.colIdx])
			}
		}
	}
	type write func(*Table) error
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cell := func(col int) sqltypes.Value {
			switch {
			case col > 0 && rng.Intn(8) == 0:
				return sqltypes.Null
			case col < 2:
				return sqltypes.NewInt(rng.Int63n(12))
			case col == 2:
				return sqltypes.NewFloat(float64(rng.Intn(40)) / 4)
			default:
				return sqltypes.NewString(strings.Repeat("x", rng.Intn(300)))
			}
		}
		tabs := []*Table{NewTable("p", schema)}
		logs := [][]write{nil} // each table's writes since NewTable
		indexes := []int{0}    // each table's index count
		for step := 0; step < 40; step++ {
			i := rng.Intn(len(tabs))
			tab, n := tabs[i], read(tabs[i], View.RowCount)
			var w write
			switch op := rng.Intn(10); {
			case op < 2 && len(tabs) < 6:
				tabs = append(tabs, tab.Copy())
				logs = append(logs, slices.Clip(logs[i]))
				indexes = append(indexes, indexes[i])
			case op < 4 || n == 0:
				rows := make([]sqltypes.Row, 1+rng.Intn(5))
				for r := range rows {
					rows[r] = sqltypes.Row{cell(0), cell(1), cell(2), cell(3)}
				}
				w = func(t *Table) error { return t.Append(rows...) }
			case op < 9:
				row, col := rng.Intn(n), rng.Intn(4)
				v := cell(col)
				w = func(t *Table) error { return t.UpdateAt(row, col, v) }
			case indexes[i] < 3:
				def := IndexGen{Name: fmt.Sprintf("ix%d", indexes[i]), Column: schema.Columns[rng.Intn(3)].Name, Kind: IndexKind(rng.Intn(2))}
				w = func(t *Table) error { _, err := t.CreateIndex(def.Name, def.Column, def.Kind); return err }
				indexes[i]++
			}
			if w != nil {
				var wg sync.WaitGroup
				for _, other := range tabs {
					if other != tab {
						wg.Add(1)
						go func() { defer wg.Done(); scan(other) }()
					}
				}
				err := w(tab)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = append(logs[i], w)
			}
			// Derive some state at this version, so that later ones carry it.
			v := tabs[rng.Intn(len(tabs))].View()
			switch rng.Intn(3) {
			case 0:
				v.Stats()
			case 1:
				v.Columns()
			}
			v.Close()

			for j, tab := range tabs {
				label := fmt.Sprintf("seed %d, step %d, table %d", seed, step, j)
				twin := NewTable("p", schema)
				for _, w := range logs[j] {
					if err := w(twin); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := read(tab, View.Version), read(twin, View.Version); got != want {
					t.Fatalf("%s: version %d, the twin's %d", label, got, want)
				}
				if !slices.EqualFunc(read(tab, View.Rows), read(twin, View.Rows), slices.Equal) {
					t.Fatalf("%s: rows differ from the twin's", label)
				}
				for name, ix := range twin.indexes {
					if diff := sameContents(tab.indexes[name], ix); diff != "" {
						t.Fatalf("%s: index %s: %s", label, name, diff)
					}
				}
				requireSameView(t, label, tab, twin, rng)
			}
		}
	}
}

func requireSameView(t *testing.T, label string, tab, fresh *Table, rng *rand.Rand) {
	t.Helper()
	got, want := tab.View(), fresh.View()
	defer got.Close()
	defer want.Close()
	if got.RowCount() != want.RowCount() || got.Pages() != want.Pages() {
		t.Fatalf("%s: %d rows in %d pages, a fresh table has %d in %d", label, got.RowCount(), got.Pages(), want.RowCount(), want.Pages())
	}
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Fatalf("%s: statistics diverged from a fresh table's:\n%+v\n%+v", label, got.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(got.Columns(), want.Columns()) {
		t.Fatalf("%s: columns diverged from a fresh table's", label)
	}
	for r, row := range got.Rows() {
		for c, col := range got.Columns() {
			if col.Value(r) != row[c] {
				t.Fatalf("%s: column %d holds %v at row %d, the row holds %v", label, c, col.Value(r), r, row[c])
			}
		}
	}
	sorted := func(pos []int32) []int32 {
		slices.Sort(pos)
		return pos
	}
	wantIndexes := want.Indexes()
	if len(got.Indexes()) != len(wantIndexes) {
		t.Fatalf("%s: %d indexes, want %d", label, len(got.Indexes()), len(wantIndexes))
	}
	for i, ix := range got.Indexes() {
		g, err := got.Index(ix)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Index(wantIndexes[i])
		if err != nil {
			t.Fatal(err)
		}
		if ix.Name() != wantIndexes[i].Name() || g.Len() != w.Len() {
			t.Fatalf("%s: index %s holds %d entries, a fresh %s holds %d", label, ix.Name(), g.Len(), wantIndexes[i].Name(), w.Len())
		}
		entries := 0
		for key := int64(-1); key < 13; key++ {
			for _, k := range []sqltypes.Value{sqltypes.NewInt(key), sqltypes.NewFloat(float64(key) / 4)} {
				gp, wp := sorted(g.LookupEq(k)), sorted(w.LookupEq(k))
				if !reflect.DeepEqual(gp, wp) {
					t.Fatalf("%s: index %s finds %v at rows %v, a fresh one at %v", label, ix.Name(), k, gp, wp)
				}
			}
		}
		lo, hi := sqltypes.NewFloat(float64(rng.Intn(6))), sqltypes.NewFloat(float64(6+rng.Intn(6)))
		for _, bounds := range [][2]*sqltypes.Value{{nil, nil}, {&lo, nil}, {nil, &hi}, {&lo, &hi}} {
			gp, wp := sorted(g.LookupRange(bounds[0], bounds[1], true, false)), sorted(w.LookupRange(bounds[0], bounds[1], true, false))
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("%s: index %s range finds rows %v, a fresh one %v", label, ix.Name(), gp, wp)
			}
			if bounds[0] == nil && bounds[1] == nil {
				entries = len(gp)
			}
		}
		if ix.Kind() == IndexSorted && entries != g.Len() {
			t.Fatalf("%s: index %s counts %d entries and holds %d", label, ix.Name(), g.Len(), entries)
		}
	}
}

// TestIndexOfAnotherTable: a view opens its own table's indexes only, an
// identically named index of another table included.
func TestIndexOfAnotherTable(t *testing.T) {
	a, b := newTestTable(t), newTestTable(t)
	ixA, err := a.CreateIndex("pk", "id", IndexSorted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateIndex("pk", "id", IndexSorted); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	defer v.Close()
	if _, err := v.Index(ixA); err == nil {
		t.Fatal("a view must refuse another table's index")
	}
	if _, err := v.Index(v.Indexes()[0]); err != nil {
		t.Fatal(err)
	}
}

// TestStatsUnderAnOpenView: statistics are read under the read lock, so a
// reader that holds a view open (a scan, another explain) does not keep a
// second reader from them, and both get the one collection.
func TestStatsUnderAnOpenView(t *testing.T) {
	tab := newTestTable(t)
	held := tab.View()
	defer held.Close()
	got := make(chan *stats.TableStats, 1)
	go func() { got <- read(tab, View.Stats) }()
	select {
	case ts := <-got:
		if ts != held.Stats() {
			t.Fatal("two views of one version collected statistics twice")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats waited for another reader's view to close")
	}
}
