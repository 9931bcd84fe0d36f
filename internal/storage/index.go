package storage

import (
	"sort"

	"repro/internal/sqltypes"
)

// IndexKind selects the index implementation.
type IndexKind uint8

const (
	// IndexHash serves equality probes only.
	IndexHash IndexKind = iota
	// IndexSorted serves equality and range probes (stand-in for a B-tree).
	IndexSorted
)

// String names the kind.
func (k IndexKind) String() string {
	if k == IndexSorted {
		return "SORTED"
	}
	return "HASH"
}

// Index maps column values to row positions. It is owned by a Table and
// protected by the table's lock: outside this package an Index is a handle
// (name, column, kind) that plan nodes carry, and its contents are read
// through View.Index.
type Index struct {
	name   string
	column string
	colIdx int
	kind   IndexKind

	hash    map[uint64][]int
	sorted  []sortedEntry // kept ordered by value
	entries int           // indexed (non-NULL) values
}

type sortedEntry struct {
	val sqltypes.Value
	pos int
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Kind returns the index kind.
func (ix *Index) Kind() IndexKind { return ix.kind }

func (ix *Index) insert(v sqltypes.Value, pos int) {
	if v.IsNull() {
		return // NULLs are not indexed
	}
	h := v.Hash()
	ix.hash[h] = append(ix.hash[h], pos)
	ix.entries++
	if ix.kind == IndexSorted {
		i := sort.Search(len(ix.sorted), func(i int) bool {
			return sqltypes.Compare(ix.sorted[i].val, v) >= 0
		})
		ix.sorted = append(ix.sorted, sortedEntry{})
		copy(ix.sorted[i+1:], ix.sorted[i:])
		ix.sorted[i] = sortedEntry{val: v, pos: pos}
	}
}

func (ix *Index) remove(v sqltypes.Value, pos int) {
	if v.IsNull() {
		return
	}
	h := v.Hash()
	list := ix.hash[h]
	for i, p := range list {
		if p == pos {
			ix.hash[h] = append(list[:i], list[i+1:]...)
			ix.entries--
			break
		}
	}
	if ix.kind == IndexSorted {
		for i, e := range ix.sorted {
			if e.pos == pos && sqltypes.Compare(e.val, v) == 0 {
				ix.sorted = append(ix.sorted[:i], ix.sorted[i+1:]...)
				break
			}
		}
	}
}

// IndexView is an index's contents at the version of the View that opened it;
// the positions it returns index that view's Rows and Columns.
type IndexView struct {
	ix *Index
}

// LookupEq returns the positions of rows whose key equals v.
func (iv IndexView) LookupEq(v sqltypes.Value) []int {
	if v.IsNull() {
		return nil
	}
	return iv.AppendEqHash(nil, v.Hash())
}

// AppendEqHash appends to dst the positions LookupEq returns for a non-NULL
// key whose Value.Hash is h, and returns the extended slice: a join probing
// once per outer row collects every match in one slice and never boxes the
// key.
func (iv IndexView) AppendEqHash(dst []int, h uint64) []int {
	return append(dst, iv.ix.hash[h]...)
}

// LookupRange returns positions of rows with lo <= key <= hi; a nil bound is
// open. Only sorted indexes support ranges; hash indexes return nil, which
// callers treat as "index cannot serve this probe".
func (iv IndexView) LookupRange(lo, hi *sqltypes.Value, loInclusive, hiInclusive bool) []int {
	ix := iv.ix
	if ix.kind != IndexSorted {
		return nil
	}
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.sorted), func(i int) bool {
			c := sqltypes.Compare(ix.sorted[i].val, *lo)
			if loInclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.sorted)
	if hi != nil {
		end = sort.Search(len(ix.sorted), func(i int) bool {
			c := sqltypes.Compare(ix.sorted[i].val, *hi)
			if hiInclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	out := make([]int, 0, end-start)
	for _, e := range ix.sorted[start:end] {
		out = append(out, e.pos)
	}
	return out
}

// Len returns the number of indexed (non-NULL) entries.
func (iv IndexView) Len() int { return iv.ix.entries }
