package storage

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/exec/colbatch"
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
// The order contract: sorted holds the position of every indexed (non-NULL)
// cell, ascending by sqltypes.Compare of the cells, equal keys newest first —
// the order inserting each key at its lower bound produces, and the order
// build reproduces with one sort. Entries hold no value: they compare through
// the table's column, so a cell's entry is removed before the cell is
// overwritten and inserted after. A hash list holds its positions in
// insertion order, ascending after a build.
type Index struct {
	name   string
	column string
	colIdx int
	kind   IndexKind

	hash    map[uint64][]int32
	sorted  []int32 // positions, kept ordered by their cells
	entries int     // indexed (non-NULL) values
	// shared is set while another table's index may read hash and sorted
	// (share sets it on both handles): the next edit clones them first.
	shared bool
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Kind returns the index kind.
func (ix *Index) Kind() IndexKind { return ix.kind }

// build indexes the n cells of c, an empty index's whole input, in
// O(n log n): one sort instead of n sorted inserts, with the contents
// inserting every position in order would leave.
func (ix *Index) build(c *colbatch.Column, n int) {
	distinct := 0 // a hint for the hash map; a hash index learns it by growing
	if ix.kind == IndexSorted {
		ix.sorted = make([]int32, 0, n)
		for pos := 0; pos < n; pos++ {
			if !c.IsNull(pos) {
				ix.sorted = append(ix.sorted, int32(pos))
			}
		}
		order := func(a, b int32) int { return sqltypes.Compare(c.Value(int(a)), c.Value(int(b))) }
		slices.SortFunc(ix.sorted, func(a, b int32) int {
			if o := order(a, b); o != 0 {
				return o
			}
			return cmp.Compare(b, a) // equal keys newest first
		})
		for i, pos := range ix.sorted {
			if i == 0 || order(ix.sorted[i-1], pos) != 0 {
				distinct++
			}
		}
	}
	ix.hash = make(map[uint64][]int32, distinct)
	for pos := 0; pos < n; pos++ {
		if v := c.Value(pos); !v.IsNull() {
			h := v.Hash()
			ix.hash[h] = append(ix.hash[h], int32(pos))
			ix.entries++
		}
	}
}

// share marks ix's contents shared and returns another handle on them, for a
// copy of ix's table.
func (ix *Index) share() *Index {
	ix.shared = true
	c := *ix
	return &c
}

// own makes the contents ix's alone before an edit: insert and remove edit
// hash lists and the sorted slice in place.
func (ix *Index) own() {
	if !ix.shared {
		return
	}
	hash := make(map[uint64][]int32, len(ix.hash))
	positions := make([]int32, 0, ix.entries) // every list, one allocation
	for h, list := range ix.hash {
		n := len(positions)
		positions = append(positions, list...)
		hash[h] = positions[n:len(positions):len(positions)] // full, so an insert reallocates
	}
	ix.hash, ix.sorted, ix.shared = hash, slices.Clone(ix.sorted), false
}

// insert indexes position pos, whose cell c already holds.
func (ix *Index) insert(c *colbatch.Column, pos int) {
	v := c.Value(pos)
	if v.IsNull() {
		return // NULLs are not indexed
	}
	ix.own()
	h := v.Hash()
	ix.hash[h] = append(ix.hash[h], int32(pos))
	ix.entries++
	if ix.kind == IndexSorted {
		ix.sorted = slices.Insert(ix.sorted, ix.lowerBound(c, v), int32(pos))
	}
}

// remove drops position pos, whose cell c still holds.
func (ix *Index) remove(c *colbatch.Column, pos int) {
	v := c.Value(pos)
	if v.IsNull() {
		return
	}
	ix.own()
	h := v.Hash()
	if i := slices.Index(ix.hash[h], int32(pos)); i >= 0 {
		ix.hash[h] = slices.Delete(ix.hash[h], i, i+1)
		ix.entries--
	}
	if ix.kind == IndexSorted {
		// The entries equal to v are one run that starts at its lower bound.
		for i := ix.lowerBound(c, v); i < len(ix.sorted) && sqltypes.Compare(c.Value(int(ix.sorted[i])), v) == 0; i++ {
			if int(ix.sorted[i]) == pos {
				ix.sorted = slices.Delete(ix.sorted, i, i+1)
				break
			}
		}
	}
}

// lowerBound returns the first sorted entry whose cell in c is not below v.
func (ix *Index) lowerBound(c *colbatch.Column, v sqltypes.Value) int {
	return sort.Search(len(ix.sorted), func(i int) bool {
		return sqltypes.Compare(c.Value(int(ix.sorted[i])), v) >= 0
	})
}

// IndexView is an index's contents at the version of the View that opened it;
// the positions it returns index that view's rows and columns.
type IndexView struct {
	ix  *Index
	col *colbatch.Column // the indexed column at the view's version
}

// LookupEq returns the positions of rows whose key equals v.
func (iv IndexView) LookupEq(v sqltypes.Value) []int32 {
	if v.IsNull() {
		return nil
	}
	h := v.Hash()
	return iv.AppendEqHash(nil, h, 0, iv.CountEqHash(h))
}

// CountEqHash returns how many positions LookupEq returns for a non-NULL key
// whose Value.Hash is h, copying none: a join counts its matches first and
// sizes its output once.
func (iv IndexView) CountEqHash(h uint64) int { return len(iv.ix.hash[h]) }

// AppendEqHash appends to dst matches [lo, hi) of the CountEqHash(h)
// positions LookupEq returns for a non-NULL key whose Value.Hash is h, and
// returns the extended slice: a join collects its matches without boxing the
// key, a window of them at a time.
func (iv IndexView) AppendEqHash(dst []int32, h uint64, lo, hi int) []int32 {
	return append(dst, iv.ix.hash[h][lo:hi]...)
}

// LookupRange returns positions of rows with lo <= key <= hi; a nil bound is
// open. Only sorted indexes support ranges; hash indexes return nil, which
// callers treat as "index cannot serve this probe".
func (iv IndexView) LookupRange(lo, hi *sqltypes.Value, loInclusive, hiInclusive bool) []int32 {
	ix := iv.ix
	if ix.kind != IndexSorted {
		return nil
	}
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.sorted), func(i int) bool {
			c := sqltypes.Compare(iv.col.Value(int(ix.sorted[i])), *lo)
			if loInclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.sorted)
	if hi != nil {
		end = sort.Search(len(ix.sorted), func(i int) bool {
			c := sqltypes.Compare(iv.col.Value(int(ix.sorted[i])), *hi)
			if hiInclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	return slices.Clone(ix.sorted[start:end])
}

// Len returns the number of indexed (non-NULL) entries.
func (iv IndexView) Len() int { return iv.ix.entries }
