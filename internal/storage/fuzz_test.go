package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// model is the naive reference a fuzzed table is checked against: its rows as
// a slice of rows, and per index the sequence number of each position's last
// insertion (0: not indexed), from which the order contract follows — hash
// lists in insertion order, sorted entries ascending with equal keys newest
// first.
type model struct {
	rows    []sqltypes.Row
	indexes map[string]*modelIndex
	next    int // the next insertion's sequence number, over all indexes
}

type modelIndex struct {
	col  int
	kind IndexKind
	seq  []int
}

func (m *model) copy() *model {
	c := &model{rows: slices.Clone(m.rows), indexes: map[string]*modelIndex{}, next: m.next}
	for name, ix := range m.indexes {
		c.indexes[name] = &modelIndex{col: ix.col, kind: ix.kind, seq: slices.Clone(ix.seq)}
	}
	return c
}

// insert records position pos as (re)inserted into ix if its cell is indexed.
func (m *model) insert(ix *modelIndex, pos int) {
	ix.seq[pos] = 0
	if !m.rows[pos][ix.col].IsNull() {
		m.next++
		ix.seq[pos] = m.next
	}
}

// eq is what LookupEq(v) returns: the positions whose cell hashes as v does,
// in insertion order.
func (ix *modelIndex) eq(rows []sqltypes.Row, v sqltypes.Value) []int32 {
	var out []int32
	for pos, s := range ix.seq {
		if s > 0 && rows[pos][ix.col].Hash() == v.Hash() {
			out = append(out, int32(pos))
		}
	}
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(ix.seq[a], ix.seq[b]) })
	return out
}

// between is what LookupRange(&lo, &hi, true, true) returns from a sorted
// index.
func (ix *modelIndex) between(rows []sqltypes.Row, lo, hi sqltypes.Value) []int32 {
	var out []int32
	for pos, s := range ix.seq {
		if v := rows[pos][ix.col]; s > 0 && sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0 {
			out = append(out, int32(pos))
		}
	}
	slices.SortFunc(out, func(a, b int32) int {
		if c := sqltypes.Compare(rows[a][ix.col], rows[b][ix.col]); c != 0 {
			return c
		}
		return cmp.Compare(ix.seq[b], ix.seq[a])
	})
	return out
}

var fuzzSchema = sqltypes.NewSchema(
	sqltypes.Column{Table: "f", Name: "i", Type: sqltypes.KindInt},
	sqltypes.Column{Table: "f", Name: "x", Type: sqltypes.KindFloat},
	sqltypes.Column{Table: "f", Name: "s", Type: sqltypes.KindString},
)

// fuzzCell decodes one byte into a cell of any kind: NULLs, small ints, floats
// that are often an int's twin (2 and 2.0 compare equal and hash alike),
// strings and bools, so columns go typed, nullable, all-NULL and mixed.
func fuzzCell(b byte) sqltypes.Value {
	k := int(b / 6)
	switch b % 6 {
	case 0:
		return sqltypes.Null
	case 1, 5:
		return sqltypes.NewInt(int64(k%8 - 2))
	case 2:
		return sqltypes.NewFloat(float64(k%8) / 2)
	case 3:
		return sqltypes.NewString([]string{"", "a", "b", "ab"}[k%4])
	default:
		return sqltypes.NewBool(k%2 == 1)
	}
}

// fuzzKeys are the distinct cells fuzzCell decodes: the keys every index is
// probed with.
var fuzzKeys = func() (keys []sqltypes.Value) {
	for b := range 48 {
		if k := fuzzCell(byte(b)); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}()

// FuzzTableWrites decodes its input into a sequence of Append (NULLs and mixed
// kinds included), UpdateAt, Copy, CreateIndex (hash and sorted) and view
// reads over a few tables that copy one another. After every step each table
// reads what its naive model holds — columns field for field as
// colbatch.NewColumn builds them, rows, statistics, pages and every index's
// positions in order — and every column a view returned earlier is still
// what it was when returned.
func FuzzTableWrites(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 7, 13, 2, 1, 0, 1, 2, 9, 3, 0, 1, 3, 1, 0, 4, 0, 1, 0, 0, 12, 2, 0, 2, 6, 1})
	f.Add([]byte("\x00\x04\x01\x02\x03\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x03\x00\x01\x03\x02\x01\x04\x00\x01\x02\x03\x11\x02\x00\x05\x00\x01\x01\x02"))
	r := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 48+r.Intn(160))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() byte {
			if at >= len(data) {
				return 0
			}
			at++
			return data[at-1]
		}
		tabs, models := []*Table{NewTable("f", fuzzSchema)}, []*model{{indexes: map[string]*modelIndex{}}}
		type handout struct{ col, kept *colbatch.Column }
		var handed []handout
		for step := 0; at < len(data) && step < 64; step++ {
			i := int(next()) % len(tabs)
			tab, m := tabs[i], models[i]
			switch op := next() % 6; {
			case op == 0 || len(m.rows) == 0:
				rows := make([]sqltypes.Row, 1+int(next())%4)
				for r := range rows {
					rows[r] = sqltypes.Row{fuzzCell(next()), fuzzCell(next()), fuzzCell(next())}
				}
				if err := tab.Append(rows...); err != nil {
					t.Fatal(err)
				}
				base := len(m.rows)
				m.rows = append(m.rows, rows...)
				for _, ix := range m.indexes {
					ix.seq = append(ix.seq, make([]int, len(rows))...)
					for pos := base; pos < len(m.rows); pos++ {
						m.insert(ix, pos)
					}
				}
			case op == 1 || op == 2:
				row, col, v := int(next())%len(m.rows), int(next())%3, fuzzCell(next())
				if err := tab.UpdateAt(row, col, v); err != nil {
					t.Fatal(err)
				}
				m.rows[row] = slices.Clone(m.rows[row])
				m.rows[row][col] = v
				for _, ix := range m.indexes {
					if ix.col == col {
						m.insert(ix, row)
					}
				}
			case op == 3 && len(tabs) < 4:
				tabs, models = append(tabs, tab.Copy()), append(models, m.copy())
			case op == 4 && len(m.indexes) < 3:
				name, col, kind := fmt.Sprintf("ix%d", len(m.indexes)), int(next())%3, IndexKind(next()%2)
				if _, err := tab.CreateIndex(name, fuzzSchema.Columns[col].Name, kind); err != nil {
					t.Fatal(err)
				}
				ix := &modelIndex{col: col, kind: kind, seq: make([]int, len(m.rows))}
				for pos := range m.rows {
					m.insert(ix, pos)
				}
				m.indexes[name] = ix
			default: // a scan hands the columns out
				for _, c := range read(tab, View.Columns) {
					handed = append(handed, handout{c, c.Clone(0)})
				}
			}
			for j := range tabs {
				requireModel(t, fmt.Sprintf("step %d, table %d", step, j), tabs[j], models[j])
			}
			for _, h := range handed {
				if !reflect.DeepEqual(h.col, h.kept) {
					t.Fatalf("step %d: a write changed a column a view had returned", step)
				}
			}
		}
	})
}

// requireModel fails t unless tab reads exactly what m holds.
func requireModel(t *testing.T, label string, tab *Table, m *model) {
	t.Helper()
	v := tab.View()
	defer v.Close()
	n := len(m.rows)
	if !slices.EqualFunc(v.Rows(), m.rows, slices.Equal) || v.RowCount() != n {
		t.Fatalf("%s: rows %v, the model's %v", label, v.Rows(), m.rows)
	}
	want := stats.Collect("f", fuzzSchema, m.rows)
	bytes := 0
	for _, r := range m.rows {
		bytes += r.ByteSize()
	}
	cells := make([]sqltypes.Value, n)
	for c, col := range fuzzSchema.Columns {
		wantCol := colbatch.RowsColumn(m.rows, c, cells)
		// The stored column, not Columns(): a check must not hand it out.
		if got := tab.cols[c]; !reflect.DeepEqual(got, wantCol) {
			t.Fatalf("%s: column %s is %+v, NewColumn builds %+v", label, col.Name, got, wantCol)
		}
		if n > 0 {
			cs := want.Columns[col.Name]
			cs.WireBytes = float64(colbatch.ColumnWireBytes(wantCol, n, colbatch.ShipBatchRows)) / float64(n)
			want.WireRowBytes += cs.WireBytes
		}
	}
	if got := v.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: statistics %+v, the model's %+v", label, got, want)
	}
	if got := v.Pages(); got != pagesOf(bytes, n > 0) {
		t.Fatalf("%s: %d pages for %d bytes", label, got, bytes)
	}
	for name, mix := range m.indexes {
		iv, err := v.Index(tab.indexes[name])
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, s := range mix.seq {
			if s > 0 {
				count++
			}
		}
		if iv.Len() != count {
			t.Fatalf("%s: index %s holds %d entries, the model %d", label, name, iv.Len(), count)
		}
		for i, key := range fuzzKeys {
			if got, want := iv.LookupEq(key), mix.eq(m.rows, key); !key.IsNull() && !slices.Equal(got, want) {
				t.Fatalf("%s: index %s finds %v at %v, the model at %v", label, name, key, got, want)
			}
			if mix.kind != IndexSorted {
				continue
			}
			hi := fuzzKeys[(i+7)%len(fuzzKeys)]
			if got, want := iv.LookupRange(&key, &hi, true, true), mix.between(m.rows, key, hi); !slices.Equal(got, want) {
				t.Fatalf("%s: index %s ranges [%v, %v] to %v, the model to %v", label, name, key, hi, got, want)
			}
		}
	}
}
