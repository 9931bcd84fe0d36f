package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sqltypes"
)

// buildIndex indexes vals by position; the tests read it as a view would.
func buildIndex(kind IndexKind, vals []int64) IndexView {
	ix := &Index{name: "ix", column: "k", kind: kind, hash: map[uint64][]int{}}
	for i, v := range vals {
		ix.insert(sqltypes.NewInt(v), i)
	}
	return IndexView{ix: ix}
}

func TestHashIndexLookupEq(t *testing.T) {
	ix := buildIndex(IndexHash, []int64{5, 3, 5, 9})
	got := ix.LookupEq(sqltypes.NewInt(5))
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("eq lookup: %v", got)
	}
	if got := ix.LookupEq(sqltypes.NewInt(42)); len(got) != 0 {
		t.Fatalf("miss: %v", got)
	}
	if got := ix.LookupEq(sqltypes.Null); got != nil {
		t.Fatal("null probe must return nil")
	}
}

func TestHashIndexNoRange(t *testing.T) {
	ix := buildIndex(IndexHash, []int64{1, 2, 3})
	lo := sqltypes.NewInt(1)
	if got := ix.LookupRange(&lo, nil, true, true); got != nil {
		t.Fatal("hash index must not serve ranges")
	}
}

func TestSortedIndexRange(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{10, 20, 30, 40, 50})
	lo, hi := sqltypes.NewInt(20), sqltypes.NewInt(40)
	got := ix.LookupRange(&lo, &hi, true, true)
	sort.Ints(got)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("range [20,40]: %v", got)
	}
	got = ix.LookupRange(&lo, &hi, false, false)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("range (20,40): %v", got)
	}
	got = ix.LookupRange(&lo, nil, false, true)
	sort.Ints(got)
	if len(got) != 3 {
		t.Fatalf("open-above range: %v", got)
	}
	got = ix.LookupRange(nil, &hi, true, false)
	sort.Ints(got)
	if len(got) != 3 {
		t.Fatalf("open-below range: %v", got)
	}
	hi2 := sqltypes.NewInt(5)
	if got := ix.LookupRange(nil, &hi2, true, true); got != nil {
		t.Fatalf("empty range: %v", got)
	}
}

func TestSortedIndexDuplicates(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{7, 7, 7, 1})
	got := ix.LookupEq(sqltypes.NewInt(7))
	if len(got) != 3 {
		t.Fatalf("dup eq: %v", got)
	}
	lo := sqltypes.NewInt(7)
	got = ix.LookupRange(&lo, &lo, true, true)
	if len(got) != 3 {
		t.Fatalf("dup range: %v", got)
	}
}

func TestIndexRemove(t *testing.T) {
	ix := buildIndex(IndexSorted, []int64{1, 2, 3})
	ix.ix.remove(sqltypes.NewInt(2), 1)
	if got := ix.LookupEq(sqltypes.NewInt(2)); len(got) != 0 {
		t.Fatalf("after remove: %v", got)
	}
	if ix.Len() != 2 {
		t.Fatalf("len after remove: %d", ix.Len())
	}
	lo, hi := sqltypes.NewInt(1), sqltypes.NewInt(3)
	if got := ix.LookupRange(&lo, &hi, true, true); len(got) != 2 {
		t.Fatalf("sorted after remove: %v", got)
	}
	// Removing NULL or absent values is a no-op.
	ix.ix.remove(sqltypes.Null, 0)
	ix.ix.remove(sqltypes.NewInt(99), 0)
	if ix.Len() != 2 {
		t.Fatalf("len after no-op removes: %d", ix.Len())
	}
}

func TestIndexNullsNotIndexed(t *testing.T) {
	ix := buildIndex(IndexSorted, nil)
	ix.ix.insert(sqltypes.Null, 0)
	ix.ix.insert(sqltypes.NewInt(1), 1)
	if ix.Len() != 1 {
		t.Fatalf("null must not be indexed: %d", ix.Len())
	}
}

// Property: sorted-index range lookup matches a linear scan filter.
func TestSortedIndexRangeMatchesScanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = r.Int63n(50)
	}
	ix := buildIndex(IndexSorted, vals)
	f := func(a, b int64) bool {
		lo, hi := a%50, b%50
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		lov, hiv := sqltypes.NewInt(lo), sqltypes.NewInt(hi)
		got := ix.LookupRange(&lov, &hiv, true, true)
		want := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexHash.String() != "HASH" || IndexSorted.String() != "SORTED" {
		t.Fatal("kind names")
	}
}
