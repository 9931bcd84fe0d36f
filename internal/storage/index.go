package storage

import (
	"cmp"
	"slices"
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
//
// The order contract: sorted holds every indexed (non-NULL) value ascending by
// sqltypes.Compare, equal keys newest first — the order inserting each key at
// its lower bound produces, and the order build reproduces with one sort. A
// hash list holds its positions in insertion order, ascending after a build.
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

// build indexes rows, an empty index's whole input, in O(n log n): one sort
// instead of n sorted inserts, with the contents inserting every row in
// position order would leave.
func (ix *Index) build(rows []sqltypes.Row) {
	distinct := 0 // a hint for the hash map; a hash index learns it by growing
	if ix.kind == IndexSorted {
		ix.sorted = make([]sortedEntry, 0, len(rows))
		for pos, r := range rows {
			if v := r[ix.colIdx]; !v.IsNull() {
				ix.sorted = append(ix.sorted, sortedEntry{val: v, pos: pos})
			}
		}
		slices.SortFunc(ix.sorted, func(a, b sortedEntry) int {
			if c := sqltypes.Compare(a.val, b.val); c != 0 {
				return c
			}
			return cmp.Compare(b.pos, a.pos) // equal keys newest first
		})
		for i, e := range ix.sorted {
			if i == 0 || sqltypes.Compare(ix.sorted[i-1].val, e.val) != 0 {
				distinct++
			}
		}
	}
	ix.hash = make(map[uint64][]int, distinct)
	for pos, r := range rows {
		if v := r[ix.colIdx]; !v.IsNull() {
			h := v.Hash()
			ix.hash[h] = append(ix.hash[h], pos)
			ix.entries++
		}
	}
}

// clone returns a copy of ix that shares no slice with it: insert and remove
// edit hash lists and the sorted slice in place.
func (ix *Index) clone() *Index {
	c := *ix
	c.hash = make(map[uint64][]int, len(ix.hash))
	positions := make([]int, 0, ix.entries) // every list, one allocation
	for h, list := range ix.hash {
		n := len(positions)
		positions = append(positions, list...)
		c.hash[h] = positions[n:len(positions):len(positions)] // full, so an insert reallocates
	}
	c.sorted = slices.Clone(ix.sorted)
	return &c
}

func (ix *Index) insert(v sqltypes.Value, pos int) {
	if v.IsNull() {
		return // NULLs are not indexed
	}
	h := v.Hash()
	ix.hash[h] = append(ix.hash[h], pos)
	ix.entries++
	if ix.kind == IndexSorted {
		ix.sorted = slices.Insert(ix.sorted, ix.lowerBound(v), sortedEntry{val: v, pos: pos})
	}
}

func (ix *Index) remove(v sqltypes.Value, pos int) {
	if v.IsNull() {
		return
	}
	h := v.Hash()
	if i := slices.Index(ix.hash[h], pos); i >= 0 {
		ix.hash[h] = slices.Delete(ix.hash[h], i, i+1)
		ix.entries--
	}
	if ix.kind == IndexSorted {
		// The entries equal to v are one run that starts at its lower bound.
		for i := ix.lowerBound(v); i < len(ix.sorted) && sqltypes.Compare(ix.sorted[i].val, v) == 0; i++ {
			if ix.sorted[i].pos == pos {
				ix.sorted = slices.Delete(ix.sorted, i, i+1)
				break
			}
		}
	}
}

// lowerBound returns the position of the first sorted entry not below v.
func (ix *Index) lowerBound(v sqltypes.Value) int {
	return sort.Search(len(ix.sorted), func(i int) bool {
		return sqltypes.Compare(ix.sorted[i].val, v) >= 0
	})
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
