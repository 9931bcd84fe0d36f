// Package storage implements the in-memory table storage used by the
// simulated remote DBMS servers: heap tables, hash and sorted indexes,
// seeded synthetic data generation, and the update application path driven
// by the background update-load generator.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// PageSize is the notional page size (bytes) used to translate table volume
// into IO pages for the cost and timing models.
const PageSize = 4096

// Table is an in-memory heap table with optional indexes.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *sqltypes.Schema
	rows    []sqltypes.Row
	indexes map[string]*Index
	stats   *stats.TableStats // refreshed lazily (RUNSTATS-style)
	dirty   bool
	version int64 // bumped on every mutation; buffer-pool model uses it
	// virtual, when set, makes the table a statistics-only shell: Stats()
	// returns it and Pages() derives from it. QCC's simulated federated
	// system registers such "virtual tables ... without storing the actual
	// data" (§2) to run what-if explains.
	virtual *stats.TableStats
	// colMemo is the rows' columnar decomposition at one version (see
	// Columns). It lives on the table so it is collected with the table.
	colMemo atomic.Pointer[columnMemo]
	// pageMemo is the rows' page count at one version (see Pages).
	pageMemo atomic.Pointer[pageCount]
}

// columnMemo is a table's columnar decomposition at a version.
type columnMemo struct {
	version int64
	cols    []*colbatch.Column
	n       int
}

// pageCount is a table's page count at a version.
type pageCount struct {
	version int64
	pages   int
}

// NewTable creates an empty table.
func NewTable(name string, schema *sqltypes.Schema) *Table {
	return &Table{name: name, schema: schema, indexes: map[string]*Index{}}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *sqltypes.Schema { return t.schema }

// RowCount returns the current number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Version returns the mutation counter.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Pages returns the number of notional disk pages the table occupies. The
// estimator asks per scan per plan, so the sum over the rows is memoized per
// table version; a virtual table answers from its injected statistics.
func (t *Table) Pages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.virtual != nil {
		p := int(float64(t.virtual.RowCount) * t.virtual.AvgRowBytes / PageSize)
		if p == 0 && t.virtual.RowCount > 0 {
			p = 1
		}
		return p
	}
	if m := t.pageMemo.Load(); m != nil && m.version == t.version {
		return m.pages
	}
	bytes := 0
	for _, r := range t.rows {
		bytes += r.ByteSize()
	}
	p := bytes / PageSize
	if p == 0 && len(t.rows) > 0 {
		p = 1
	}
	t.pageMemo.Store(&pageCount{version: t.version, pages: p})
	return p
}

// Append adds rows in bulk (used by data generation and loads).
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
			idx.insert(r, base+i)
		}
	}
	t.dirty = true
	t.version++
	return nil
}

// Scan invokes fn for every row; fn must not retain the row beyond the call
// unless it clones it. Scanning takes a read lock for the duration.
func (t *Table) Scan(fn func(row sqltypes.Row) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Columns returns the rows decomposed into typed columns, and the row count —
// the vectorized executor's scan input. The decomposition is memoized per
// table version, so the update-load driver naturally evicts it. It is built
// under the read lock (UpdateAt overwrites cells in place), so no mutation
// can race the scan and the memo always matches the version it is tagged
// with. Columns are immutable once built and may be shared by any number of
// concurrent scans.
func (t *Table) Columns() ([]*colbatch.Column, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if m := t.colMemo.Load(); m != nil && m.version == t.version {
		return m.cols, m.n
	}
	b := colbatch.FromRelation(&sqltypes.Relation{Schema: t.schema, Rows: t.rows})
	t.colMemo.Store(&columnMemo{version: t.version, cols: b.Cols, n: b.Len()})
	return b.Cols, b.Len()
}

// Snapshot returns a copy of all rows (row slices are cloned shallowly;
// values are immutable).
func (t *Table) Snapshot() []sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]sqltypes.Row, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.Clone()
	}
	return out
}

// Row returns the row at position i (cloned).
func (t *Table) Row(i int) (sqltypes.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.rows) {
		return nil, fmt.Errorf("storage: row %d out of range [0,%d)", i, len(t.rows))
	}
	return t.rows[i].Clone(), nil
}

// UpdateAt overwrites column col of row i; the update-load driver uses this
// to dirty pages.
func (t *Table) UpdateAt(i, col int, v sqltypes.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.rows) {
		return fmt.Errorf("storage: row %d out of range", i)
	}
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("storage: column %d out of range", col)
	}
	old := t.rows[i][col]
	t.rows[i][col] = v
	for _, idx := range t.indexes {
		if idx.colIdx == col {
			idx.remove(old, i)
			idx.insertValue(v, i)
		}
	}
	t.dirty = true
	t.version++
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
	idx := newIndex(name, column, ci, kind)
	for i, r := range t.rows {
		idx.insert(r, i)
	}
	t.indexes[name] = idx
	return idx, nil
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

// Index returns the named index or nil.
func (t *Table) Index(name string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[name]
}

// IndexOnColumn returns some index whose key is the given column, preferring
// sorted indexes (which serve both equality and range probes), or nil.
func (t *Table) IndexOnColumn(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hash *Index
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		idx := t.indexes[n]
		if !equalFold(idx.column, column) {
			continue
		}
		if idx.kind == IndexSorted {
			return idx
		}
		if hash == nil {
			hash = idx
		}
	}
	return hash
}

// Indexes lists index names, sorted.
func (t *Table) Indexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats returns (possibly cached) statistics; it recollects when the table
// has been mutated since the last collection, mimicking RUNSTATS. Virtual
// tables return their injected statistics.
func (t *Table) Stats() *stats.TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.virtual != nil {
		return t.virtual
	}
	if t.stats == nil || t.dirty {
		t.stats = stats.Collect(t.name, t.schema, t.rows)
		t.sizeColumns(t.stats)
		t.dirty = false
	}
	return t.stats
}

// wireBatchRows is the batch the integrator asks remote cursors for
// (integrator.DefaultBatchRows): a shipped column is encoded that many rows at
// a time.
const wireBatchRows = 256

// sizeColumns records what each column costs per row on the columnar wire: the
// encoder's own sizing of the stored column, so the cost model prices a
// shipped column at what shipping it will charge. The caller holds t.mu.
func (t *Table) sizeColumns(ts *stats.TableStats) {
	n := len(t.rows)
	if n == 0 {
		return
	}
	m := t.colMemo.Load()
	if m == nil || m.version != t.version {
		b := colbatch.FromRelation(&sqltypes.Relation{Schema: t.schema, Rows: t.rows})
		fresh := &columnMemo{version: t.version, cols: b.Cols, n: n}
		// Only a table columnar scans read keeps the decomposition (its next
		// scan finds it ready); any other would hold a second copy of its rows
		// for good.
		if m != nil {
			t.colMemo.Store(fresh)
		}
		m = fresh
	}
	for i, col := range t.schema.Columns {
		cs := ts.Columns[col.Name]
		cs.WireBytes = float64(colbatch.ColumnWireBytes(m.cols[i], n, wireBatchRows)) / float64(n)
		ts.WireRowBytes += cs.WireBytes
	}
}

// SetVirtualStats turns the table into a statistics-only shell for what-if
// analysis: Stats and Pages answer from ts while the table holds no rows.
func (t *Table) SetVirtualStats(ts *stats.TableStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.virtual = ts
}

// IsVirtual reports whether the table is a statistics-only shell.
func (t *Table) IsVirtual() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.virtual != nil
}

// IndexMeta describes one index for catalog cloning.
type IndexMeta struct {
	Name   string
	Column string
	Kind   IndexKind
}

// IndexMetas lists index metadata, sorted by name.
func (t *Table) IndexMetas() []IndexMeta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]IndexMeta, 0, len(names))
	for _, n := range names {
		ix := t.indexes[n]
		out = append(out, IndexMeta{Name: ix.name, Column: ix.column, Kind: ix.kind})
	}
	return out
}
