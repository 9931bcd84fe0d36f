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

// Table is an in-memory heap table with optional indexes, stored as one typed
// column per schema column. Append, UpdateAt, CreateIndex and SetVirtualStats
// change it; everything is read through a View. Columns are copy-on-write: a
// column a view has returned, or a copy (Copy) shares, is never written again
// — the next write to it edits a clone — so a scan may keep the columns it
// read after its view is closed.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema *sqltypes.Schema
	// cols is the table: column i holds the rows' cells of schema column i,
	// always what colbatch.NewColumn builds from them.
	cols []*colbatch.Column
	rows int
	// own[i] is set while column i is the table's alone and no view has
	// returned it: a write may edit it in place.
	own []bool
	// shared is set while something outside the table may read cols — a view
	// returned them or a copy shares them: the next write owns no column.
	shared  atomic.Bool
	bytes   int // the rows' summed ByteSize, kept by every write
	indexes map[string]*Index
	version int64 // bumped on every mutation; buffer-pool model uses it
	// virtual, when set, makes the table a statistics-only shell: a view's
	// Stats returns it and Pages derives from it. QCC's simulated federated
	// system registers such "virtual tables ... without storing the actual
	// data" (§2) to run what-if explains.
	virtual *stats.TableStats
	// derived is the statistics views collect at the current version. A write
	// replaces it with a record that carries the statistics of every column
	// the write left alone; copies share it until either side writes.
	derived *derived
}

// derived holds the statistics (RUNSTATS-style) of one table version, filled
// by the first view that asks from per-column records. Views share the
// table's read lock, so the Onces order them. A record never refers to the
// record it followed.
type derived struct {
	cols  []*columnStats // one per schema column
	once  sync.Once
	stats *stats.TableStats
}

// columnStats is the statistics of one stored column, wire width included.
// It holds for every version whose column is unchanged, so the records of
// those versions share it.
type columnStats struct {
	once  sync.Once
	stats *stats.ColumnStats
}

func newDerived(width int) *derived {
	d := &derived{cols: make([]*columnStats, width)}
	for i := range d.cols {
		d.cols[i] = new(columnStats)
	}
	return d
}

// after returns the record of the version a write that changed column col
// leads to: d's columns, col's replaced by one nothing is collected for yet.
func (d *derived) after(col int) *derived {
	next := &derived{cols: slices.Clone(d.cols)}
	next.cols[col] = new(columnStats)
	return next
}

// NewTable creates an empty table.
func NewTable(name string, schema *sqltypes.Schema) *Table {
	t := &Table{name: name, schema: schema, indexes: map[string]*Index{}, derived: newDerived(schema.Len())}
	t.cols, t.own = make([]*colbatch.Column, schema.Len()), make([]bool, schema.Len())
	for i := range t.cols {
		t.cols[i], t.own[i] = new(colbatch.Column), true // NewColumn of no cells
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *sqltypes.Schema { return t.schema }

// edit returns column i ready to be written in place, first cloning it with
// room for total cells unless it is the table's alone; the caller holds the
// write lock.
func (t *Table) edit(i, total int) *colbatch.Column {
	if t.shared.Load() {
		t.shared.Store(false)
		t.cols = slices.Clone(t.cols)
		clear(t.own)
	}
	if !t.own[i] {
		t.cols[i], t.own[i] = t.cols[i].Clone(total), true
	}
	return t.cols[i]
}

// put appends row to every column, which will hold total cells; the caller
// holds the write lock and installs the version.
func (t *Table) put(row sqltypes.Row, total int) {
	for c, v := range row {
		t.edit(c, total).AppendValue(t.rows, total, v)
	}
	t.rows++
	t.bytes += row.ByteSize()
}

// Append adds rows in bulk (used by loads and copies of a partition). The
// table keeps their cells, not the rows, and refuses rows that would take it
// past colbatch.MaxRows.
func (t *Table) Append(rows ...sqltypes.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != t.schema.Len() {
			return fmt.Errorf("storage: row arity %d != schema arity %d for %s", len(r), t.schema.Len(), t.name)
		}
	}
	if err := rowsFit(t.name, t.rows, len(rows)); err != nil {
		return err
	}
	base, total := t.rows, t.rows+len(rows)
	for _, r := range rows {
		t.put(r, total)
	}
	for _, idx := range t.indexes {
		for pos := base; pos < total; pos++ {
			idx.insert(t.cols[idx.colIdx], pos)
		}
	}
	t.version++
	t.derived = newDerived(t.schema.Len()) // every column has new rows
	return nil
}

// rowsFit refuses to add adding rows to table name, which holds rows, when
// the sum would pass colbatch.MaxRows: an index entry and a selection vector
// name a row by an int32 position.
func rowsFit(name string, rows, adding int) error {
	if adding > colbatch.MaxRows-rows {
		return fmt.Errorf("storage: %s would hold %d rows, past the %d a row position can name", name, rows+adding, colbatch.MaxRows)
	}
	return nil
}

// UpdateAt sets column col of row i to v; the update-load driver uses this to
// dirty pages.
func (t *Table) UpdateAt(i, col int, v sqltypes.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= t.rows {
		return fmt.Errorf("storage: row %d out of range", i)
	}
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("storage: column %d out of range", col)
	}
	c := t.edit(col, t.rows)
	t.bytes += v.ByteSize() - c.Value(i).ByteSize()
	// A sorted index finds an entry through the cell: remove before the
	// write, insert after.
	for _, idx := range t.indexes {
		if idx.colIdx == col {
			idx.remove(c, i)
		}
	}
	c.SetValue(t.rows, i, v)
	for _, idx := range t.indexes {
		if idx.colIdx == col {
			idx.insert(c, i)
		}
	}
	t.version++
	t.derived = t.derived.after(col)
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
			if strings.EqualFold(c.Name, column) {
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
	idx.build(t.cols[ci], t.rows)
	t.indexes[name] = idx
	return idx, nil
}

// Copy returns a table with t's name, schema, columns, indexes and version,
// in time and space independent of the row count: the copy shares t's
// columns, every index's contents (under its own index handles) and the
// statistics collected from them. Each table clones a shared part on its
// first write that edits it — a column when the write changes it, an index's
// contents when the write adds rows or changes the index's column — so a
// write to either table leaves the other as it was. Like a mutation, Copy
// must not be called while the calling goroutine holds a view of t.
func (t *Table) Copy() *Table {
	t.mu.Lock() // t's parts become shared
	defer t.mu.Unlock()
	t.shared.Store(true)
	c := &Table{
		name:    t.name,
		schema:  t.schema,
		cols:    t.cols,
		rows:    t.rows,
		own:     make([]bool, len(t.cols)),
		bytes:   t.bytes,
		indexes: make(map[string]*Index, len(t.indexes)),
		version: t.version,
		virtual: t.virtual,
		derived: t.derived,
	}
	c.shared.Store(true)
	for name, ix := range t.indexes {
		c.indexes[name] = ix.share()
	}
	return c
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
	return View{t: t, d: t.derived}
}

// Close releases the view; nothing may be read through it afterwards.
func (v View) Close() { v.t.mu.RUnlock() }

// Table returns the table the view reads.
func (v View) Table() *Table { return v.t }

// Version returns the table's mutation counter.
func (v View) Version() int64 { return v.t.version }

// RowCount returns the number of rows.
func (v View) RowCount() int { return v.t.rows }

// IsVirtual reports whether the table is a statistics-only shell.
func (v View) IsVirtual() bool { return v.t.virtual != nil }

// Rows materializes every row, in position order, for the row kernels: one
// cell array per call, cut into rows as colbatch.ToRelation cuts it (nil for
// an empty table). The rows are the caller's.
func (v View) Rows() []sqltypes.Row {
	return v.rows(colbatch.New(v.t.schema, v.t.cols, v.t.rows))
}

// RowsAt materializes the rows at positions, in their order, as Rows does.
func (v View) RowsAt(positions []int32) []sqltypes.Row {
	return v.rows(colbatch.NewSelected(v.t.schema, v.t.cols, positions))
}

func (v View) rows(b *colbatch.Batch) []sqltypes.Row {
	if b.Len() == 0 {
		return nil
	}
	return b.ToRelation().Rows
}

// Columns returns the stored columns, RowCount cells each — the vectorized
// executor's scan input. They never change once returned: a later write
// edits a clone, and only of the column it changes.
func (v View) Columns() []*colbatch.Column {
	if !v.t.shared.Load() { // scans share the flag's cache line: write it once
		v.t.shared.Store(true)
	}
	return v.t.cols
}

// Pages returns the number of notional disk pages the table occupies; a
// virtual table answers from its injected statistics.
func (v View) Pages() int {
	t := v.t
	if t.virtual != nil {
		return pagesOf(int(float64(t.virtual.RowCount)*t.virtual.AvgRowBytes), t.virtual.RowCount > 0)
	}
	return pagesOf(t.bytes, t.rows > 0)
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
// version that asks (mimicking RUNSTATS) from the statistics of each column,
// which a version keeps from the one before it unless the write between them
// changed the column; a virtual table returns its injected statistics. Each
// column's WireBytes is the wire encoder's own sizing of the stored column, so
// the cost model prices a shipped column at what shipping it will charge.
func (v View) Stats() *stats.TableStats {
	t := v.t
	if t.virtual != nil {
		return t.virtual
	}
	d := v.d
	d.once.Do(func() {
		ts := &stats.TableStats{
			Table:       t.name,
			RowCount:    int64(t.rows),
			AvgRowBytes: stats.AvgRowBytes(t.bytes, t.rows),
			Columns:     make(map[string]*stats.ColumnStats, len(d.cols)),
		}
		for i, col := range t.schema.Columns {
			cs := d.cols[i].collect(col, t.cols[i], t.rows)
			ts.Columns[col.Name] = cs
			ts.WireRowBytes += cs.WireBytes
		}
		d.stats = ts
	})
	return d.stats
}

// collect returns the statistics of col, stored as c with n cells, collecting
// them on first use.
func (s *columnStats) collect(col sqltypes.Column, c *colbatch.Column, n int) *stats.ColumnStats {
	s.once.Do(func() {
		s.stats = stats.CollectColumn(col, c, n)
		if n > 0 {
			s.stats.WireBytes = float64(colbatch.ColumnWireBytes(c, n, wireBatchRows)) / float64(n)
		}
	})
	return s.stats
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
		if !strings.EqualFold(ix.column, column) {
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
	return IndexView{ix: ix, col: v.t.cols[ix.colIdx]}, nil
}
