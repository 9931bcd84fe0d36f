// Package storage implements the in-memory table storage used by the
// simulated remote DBMS servers: heap tables, hash and sorted indexes,
// seeded synthetic data generation, and the update application path driven
// by the background update-load generator.
package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// PageSize is the notional page size (bytes) used to translate table volume
// into IO pages for the cost and timing models.
const PageSize = 4096

// Table is an in-memory heap table with optional indexes. Append, UpdateAt,
// CreateIndex and SetVirtualStats change it; everything is read through a
// View. Stored rows are immutable — UpdateAt swaps in a modified copy — so a
// row taken from a view may be kept after the view is closed, and copies of a
// table (Copy) share its rows.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *sqltypes.Schema
	rows    []sqltypes.Row
	indexes map[string]*Index
	version int64 // bumped on every mutation; buffer-pool model uses it
	// virtual, when set, makes the table a statistics-only shell: a view's
	// Stats returns it and Pages derives from it. QCC's simulated federated
	// system registers such "virtual tables ... without storing the actual
	// data" (§2) to run what-if explains.
	virtual *stats.TableStats
	// derived is what views have computed from the rows since the last
	// mutation: a mutation clears it, the next view installs an empty one. It
	// lives on the table, shared with the table's copies until either side
	// mutates, so it is collected with them.
	derived atomic.Pointer[derived]
	// columnar is set by the first columnar scan. Only such a table keeps the
	// decomposition its statistics are sized from (its next scan finds it
	// ready); any other would hold a second copy of its rows for good.
	columnar atomic.Bool
}

// derived holds the page count, the statistics (RUNSTATS-style) and the
// columnar decomposition of one table version, each filled by the first view
// that asks. Views share the table's read lock, so the Onces order them.
type derived struct {
	pagesOnce, statsOnce, colsOnce sync.Once

	pages int
	stats *stats.TableStats
	cols  []*colbatch.Column
}

// NewTable creates an empty table.
func NewTable(name string, schema *sqltypes.Schema) *Table {
	return &Table{name: name, schema: schema, indexes: map[string]*Index{}}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *sqltypes.Schema { return t.schema }

// mutated ends a mutation; the caller holds the write lock.
func (t *Table) mutated() {
	t.version++
	t.derived.Store(nil)
}

// Append adds rows in bulk (used by data generation and loads). The table
// keeps the rows: the caller must not write to them afterwards.
func (t *Table) Append(rows ...sqltypes.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != t.schema.Len() {
			return fmt.Errorf("storage: row arity %d != schema arity %d for %s", len(r), t.schema.Len(), t.name)
		}
	}
	base := len(t.rows)
	t.rows = append(t.rows, rows...)
	for _, idx := range t.indexes {
		for i, r := range rows {
			idx.insert(r[idx.colIdx], base+i)
		}
	}
	t.mutated()
	return nil
}

// UpdateAt replaces row i with a copy whose column col is v; the update-load
// driver uses this to dirty pages.
func (t *Table) UpdateAt(i, col int, v sqltypes.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.rows) {
		return fmt.Errorf("storage: row %d out of range", i)
	}
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("storage: column %d out of range", col)
	}
	row := t.rows[i].Clone()
	old := row[col]
	row[col] = v
	t.rows[i] = row
	for _, idx := range t.indexes {
		if idx.colIdx == col {
			idx.remove(old, i)
			idx.insert(v, i)
		}
	}
	t.mutated()
	return nil
}

// CreateIndex builds an index on the named column. Hash indexes serve
// equality; sorted indexes additionally serve ranges.
func (t *Table) CreateIndex(name, column string, kind IndexKind) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci, err := t.schema.ColumnIndex("", column)
	if err != nil {
		// Try any qualifier.
		found := -1
		for i, c := range t.schema.Columns {
			if equalFold(c.Name, column) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, err
		}
		ci = found
	}
	if _, dup := t.indexes[name]; dup {
		return nil, fmt.Errorf("storage: index %q already exists on %s", name, t.name)
	}
	idx := &Index{name: name, column: column, colIdx: ci, kind: kind}
	idx.build(t.rows)
	t.indexes[name] = idx
	return idx, nil
}

// Copy returns a table with t's name, schema, rows, indexes and version. The
// copy shares t's stored rows, which never change, and what views derive from
// them until either table mutates (so statistics are collected once for both);
// it owns everything a mutation edits — its row slice and its index contents —
// so updating either table leaves the other as it was. Like a mutation, Copy
// must not be called while the calling goroutine holds a view of t.
func (t *Table) Copy() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Table{
		name:    t.name,
		schema:  t.schema,
		rows:    slices.Clone(t.rows),
		indexes: make(map[string]*Index, len(t.indexes)),
		version: t.version,
		virtual: t.virtual,
	}
	for name, ix := range t.indexes {
		c.indexes[name] = ix.clone()
	}
	c.derived.Store(t.current())
	return c
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// SetVirtualStats turns the table into a statistics-only shell for what-if
// analysis: Stats and Pages answer from ts while the table holds no rows.
func (t *Table) SetVirtualStats(ts *stats.TableStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.virtual = ts
}

// View is a table at one version: the table's read lock, held from Table.View
// to Close. Rows, columns, page count, statistics and index contents read
// through one view all belong to Version(), and no mutation runs while a view
// is open. A goroutine must close its view of a table before it opens another
// on the same table: a writer waiting between the two blocks the second
// forever.
type View struct {
	t *Table
	d *derived
}

// View opens a view of the table's current version.
func (t *Table) View() View {
	t.mu.RLock()
	return View{t: t, d: t.current()}
}

// current returns the derived record of the current version, installing an
// empty one if a mutation dropped it; the caller holds the read lock.
func (t *Table) current() *derived {
	d := t.derived.Load()
	if d == nil {
		d = new(derived)
		// Losing to another view is fine: no writer runs, so it installed one.
		if !t.derived.CompareAndSwap(nil, d) {
			d = t.derived.Load()
		}
	}
	return d
}

// Close releases the view; nothing may be read through it afterwards.
func (v View) Close() { v.t.mu.RUnlock() }

// Table returns the table the view reads.
func (v View) Table() *Table { return v.t }

// Version returns the table's mutation counter.
func (v View) Version() int64 { return v.t.version }

// RowCount returns the number of rows.
func (v View) RowCount() int { return len(v.t.rows) }

// IsVirtual reports whether the table is a statistics-only shell.
func (v View) IsVirtual() bool { return v.t.virtual != nil }

// Rows returns the stored rows. The slice is the table's own and is only
// valid while the view is open; the rows in it never change and may be kept.
func (v View) Rows() []sqltypes.Row { return v.t.rows }

// Columns returns the rows decomposed into typed columns of RowCount values —
// the vectorized executor's scan input. Columns are immutable once built and
// shared by every scan of this version.
func (v View) Columns() []*colbatch.Column {
	if !v.t.columnar.Load() { // scans share the flag's cache line: write it once
		v.t.columnar.Store(true)
	}
	v.d.colsOnce.Do(func() { v.d.cols = v.decompose() })
	return v.d.cols
}

func (v View) decompose() []*colbatch.Column {
	return colbatch.FromRelation(&sqltypes.Relation{Schema: v.t.schema, Rows: v.t.rows}).Cols
}

// Pages returns the number of notional disk pages the table occupies; a
// virtual table answers from its injected statistics.
func (v View) Pages() int {
	t := v.t
	if t.virtual != nil {
		return pagesOf(int(float64(t.virtual.RowCount)*t.virtual.AvgRowBytes), t.virtual.RowCount > 0)
	}
	v.d.pagesOnce.Do(func() {
		bytes := 0
		for _, r := range t.rows {
			bytes += r.ByteSize()
		}
		v.d.pages = pagesOf(bytes, len(t.rows) > 0)
	})
	return v.d.pages
}

func pagesOf(bytes int, nonEmpty bool) int {
	p := bytes / PageSize
	if p == 0 && nonEmpty {
		p = 1
	}
	return p
}

// wireBatchRows is the batch the integrator asks remote cursors for
// (integrator.DefaultBatchRows): a shipped column is encoded that many rows at
// a time.
const wireBatchRows = 256

// Stats returns the table's statistics, collected by the first view of a
// version that asks (mimicking RUNSTATS); a virtual table returns its injected
// statistics. Each column's WireBytes is the wire encoder's own sizing of the
// stored column, so the cost model prices a shipped column at what shipping it
// will charge.
func (v View) Stats() *stats.TableStats {
	t := v.t
	if t.virtual != nil {
		return t.virtual
	}
	v.d.statsOnce.Do(func() {
		ts := stats.Collect(t.name, t.schema, t.rows)
		if n := len(t.rows); n > 0 {
			var cols []*colbatch.Column
			if t.columnar.Load() {
				cols = v.Columns()
			} else {
				cols = v.decompose()
			}
			for i, col := range t.schema.Columns {
				cs := ts.Columns[col.Name]
				cs.WireBytes = float64(colbatch.ColumnWireBytes(cols[i], n, wireBatchRows)) / float64(n)
				ts.WireRowBytes += cs.WireBytes
			}
		}
		v.d.stats = ts
	})
	return v.d.stats
}

// Indexes lists the table's indexes, sorted by name.
func (v View) Indexes() []*Index {
	out := make([]*Index, 0, len(v.t.indexes))
	for _, ix := range v.t.indexes {
		out = append(out, ix)
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.name, b.name) })
	return out
}

// IndexOnColumn returns one of indexes (a view's Indexes) whose key is the
// given column, preferring sorted indexes (which serve both equality and range
// probes), or nil.
func IndexOnColumn(indexes []*Index, column string) *Index {
	var hash *Index
	for _, ix := range indexes {
		if !equalFold(ix.column, column) {
			continue
		}
		if ix.kind == IndexSorted {
			return ix
		}
		if hash == nil {
			hash = ix
		}
	}
	return hash
}

// Index opens ix for reading at the view's version. An index of another table
// is an error: its positions mean nothing in this view's rows.
func (v View) Index(ix *Index) (IndexView, error) {
	if v.t.indexes[ix.name] != ix {
		return IndexView{}, fmt.Errorf("storage: index %s is not an index of table %s", ix.name, v.t.name)
	}
	return IndexView{ix: ix}, nil
}
