// Package stats implements table and column statistics — row counts,
// min/max, distinct counts, null counts and equi-depth histograms — together
// with the selectivity and cardinality estimation used by both the remote
// servers' local cost models and the integrator's global cost model. These
// are the "database statistics" the paper says cost estimation is usually
// based on; QCC's whole premise is that they do NOT capture load or network
// conditions.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
)

// DefaultHistogramBuckets is the equi-depth bucket count used by Collect.
const DefaultHistogramBuckets = 32

// ColumnStats summarizes one column.
type ColumnStats struct {
	Name      string
	Type      sqltypes.Kind
	RowCount  int64
	NullCount int64
	Distinct  int64
	Min, Max  sqltypes.Value
	Hist      *Histogram // nil for non-numeric columns
	// WireBytes is the average size of one value, NULLs included, in the
	// columnar wire encoding: what shipping the column costs per row. The
	// table that owns the rows fills it in (storage.View.Stats), Collect
	// leaves it zero.
	WireBytes float64
}

// NullFraction returns the fraction of NULL values.
func (c *ColumnStats) NullFraction() float64 {
	if c.RowCount == 0 {
		return 0
	}
	return float64(c.NullCount) / float64(c.RowCount)
}

// TableStats summarizes one table.
type TableStats struct {
	Table       string
	RowCount    int64
	AvgRowBytes float64
	// WireRowBytes is the sum of the columns' WireBytes in schema order: a
	// whole row on the columnar wire.
	WireRowBytes float64
	Columns      map[string]*ColumnStats
}

// Column returns stats for a column by (case-sensitive) name, or nil.
func (t *TableStats) Column(name string) *ColumnStats {
	if t == nil {
		return nil
	}
	return t.Columns[name]
}

// Clone returns a deep copy; used by the simulated federated system, which
// keeps statistics without data (§2 of the paper).
func (t *TableStats) Clone() *TableStats {
	if t == nil {
		return nil
	}
	out := &TableStats{Table: t.Table, RowCount: t.RowCount, AvgRowBytes: t.AvgRowBytes, WireRowBytes: t.WireRowBytes, Columns: map[string]*ColumnStats{}}
	for k, v := range t.Columns {
		cc := *v
		if v.Hist != nil {
			h := *v.Hist
			h.Buckets = append([]Bucket(nil), v.Hist.Buckets...)
			cc.Hist = &h
		}
		out.Columns[k] = &cc
	}
	return out
}

// Collect computes statistics over a materialized table.
func Collect(table string, schema *sqltypes.Schema, rows []sqltypes.Row) *TableStats {
	ts := &TableStats{Table: table, RowCount: int64(len(rows)), Columns: map[string]*ColumnStats{}}
	totalBytes := 0
	for _, r := range rows {
		totalBytes += r.ByteSize()
	}
	ts.AvgRowBytes = AvgRowBytes(totalBytes, len(rows))
	cells := make([]sqltypes.Value, len(rows))
	for ci, col := range schema.Columns {
		ts.Columns[col.Name] = CollectColumn(col, colbatch.RowsColumn(rows, ci, cells), len(rows))
	}
	return ts
}

// AvgRowBytes is TableStats.AvgRowBytes of n rows whose ByteSizes sum to
// total.
func AvgRowBytes(total, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// CollectColumn computes the statistics of col from c, its n cells: the
// ColumnStats Collect computes for it, which depend on that column alone. A
// typed column is read off its payload slice: min and max compare the payload
// as sqltypes.Compare orders it, and distinct cells are counted by the hash
// Value.Hash gives them (the sqltypes bulk hashers), with no Value built per
// cell. A Mixed column goes cell by cell. The distinct hashes go into one
// hashSet sized for the non-NULL cells; once counted, its slots hold the
// numeric cells for BuildHistogram, so a collection allocates the set and
// nothing per cell beyond it.
func CollectColumn(col sqltypes.Column, c *colbatch.Column, n int) *ColumnStats {
	cs := &ColumnStats{Name: col.Name, Type: col.Type, RowCount: int64(n)}
	if c.Mixed != nil {
		collectCells(cs, col, c, n)
		return cs
	}
	if c.Kind == sqltypes.KindNull {
		cs.NullCount = int64(n)
		return cs
	}
	nulls := c.Nulls
	if nulls != nil {
		nulls = nulls[:n]
	}
	for _, null := range nulls {
		if null {
			cs.NullCount++
		}
	}
	null := func(i int) bool { return nulls != nil && nulls[i] }
	m := n - int(cs.NullCount)
	distinct := newHashSet(m)
	switch c.Kind {
	case sqltypes.KindInt:
		var lo, hi int64
		seen := false
		for i, v := range c.Ints[:n] {
			if null(i) {
				continue
			}
			distinct.add(sqltypes.HashInt64(v))
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
		}
		if seen {
			cs.Min, cs.Max = sqltypes.NewInt(lo), sqltypes.NewInt(hi)
		}
	case sqltypes.KindFloat:
		// Compare calls NaN equal to everything: a NaN never replaces a
		// bound, and a leading NaN is never replaced.
		var lo, hi float64
		seen := false
		for i, v := range c.Floats[:n] {
			if null(i) {
				continue
			}
			distinct.add(sqltypes.HashFloat64(v))
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
		}
		if seen {
			cs.Min, cs.Max = sqltypes.NewFloat(lo), sqltypes.NewFloat(hi)
		}
	case sqltypes.KindString:
		var lo, hi string
		seen := false
		for i, v := range c.Strs[:n] {
			if null(i) {
				continue
			}
			distinct.add(sqltypes.HashString(v))
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
		}
		if seen {
			cs.Min, cs.Max = sqltypes.NewString(lo), sqltypes.NewString(hi)
		}
	case sqltypes.KindBool:
		var lo, hi bool
		seen := false
		for i, v := range c.Bools[:n] {
			if null(i) {
				continue
			}
			distinct.add(sqltypes.HashBool(v))
			if !seen || (!v && lo) {
				lo = v
			}
			if !seen || (v && !hi) {
				hi = v
			}
			seen = true
		}
		if seen {
			cs.Min, cs.Max = sqltypes.NewBool(lo), sqltypes.NewBool(hi)
		}
	}
	cs.Distinct = distinct.count()
	if col.Type != sqltypes.KindInt && col.Type != sqltypes.KindFloat {
		return cs
	}
	numeric := distinct.floats(m)
	switch c.Kind {
	case sqltypes.KindInt:
		for i, v := range c.Ints[:n] {
			if !null(i) {
				numeric = append(numeric, float64(v))
			}
		}
	case sqltypes.KindFloat:
		for i, v := range c.Floats[:n] {
			if !null(i) {
				numeric = append(numeric, v)
			}
		}
	}
	if len(numeric) > 0 {
		cs.Hist = BuildHistogram(numeric, DefaultHistogramBuckets)
	}
	return cs
}

// collectCells is CollectColumn over the cells of a Mixed column.
func collectCells(cs *ColumnStats, col sqltypes.Column, c *colbatch.Column, n int) {
	cells := c.Mixed[:n]
	for _, v := range cells {
		if v.IsNull() {
			cs.NullCount++
		}
	}
	m := n - int(cs.NullCount)
	distinct := newHashSet(m)
	for _, v := range cells {
		if v.IsNull() {
			continue
		}
		distinct.add(v.Hash())
		if cs.Min.IsNull() || sqltypes.Compare(v, cs.Min) < 0 {
			cs.Min = v
		}
		if cs.Max.IsNull() || sqltypes.Compare(v, cs.Max) > 0 {
			cs.Max = v
		}
	}
	cs.Distinct = distinct.count()
	if col.Type != sqltypes.KindInt && col.Type != sqltypes.KindFloat {
		return
	}
	numeric := distinct.floats(m)
	for _, v := range cells {
		if v.IsNumeric() {
			numeric = append(numeric, v.Float())
		}
	}
	if len(numeric) > 0 {
		cs.Hist = BuildHistogram(numeric, DefaultHistogramBuckets)
	}
}

// Bucket is one equi-depth histogram bucket: values in (prev.Upper, Upper]
// with Count entries.
type Bucket struct {
	Upper float64
	Count int64
}

// Histogram is an equi-depth histogram over a numeric column.
type Histogram struct {
	Lo, Hi  float64
	Total   int64
	Buckets []Bucket
}

// BuildHistogram builds an equi-depth histogram with at most buckets buckets.
// Its bounds are the sorted values at a few ranks (the first, the last and
// every per-th between), and it reads only those: selectRanks places there
// what sort.Float64s would, NaNs first, and leaves the rest of values in no
// particular order. The caller hands over a slice it no longer reads.
func BuildHistogram(values []float64, buckets int) *Histogram {
	if len(values) == 0 || buckets <= 0 {
		return nil
	}
	sorted := values
	per := len(sorted) / buckets
	if per == 0 {
		per = 1
	}
	ranks := histogramRanks(len(sorted), per)
	selectRanks(sorted, ranks)
	h := &Histogram{Lo: sorted[0], Hi: sorted[len(sorted)-1], Total: int64(len(sorted)), Buckets: make([]Bucket, 0, len(ranks))}
	for i := per - 1; i < len(sorted); i += per {
		upper := sorted[i]
		// Extend the last bucket to the true max.
		if i+per >= len(sorted) {
			upper = sorted[len(sorted)-1]
			i = len(sorted) - 1
		}
		count := int64(per)
		if len(h.Buckets) > 0 && h.Buckets[len(h.Buckets)-1].Upper == upper {
			h.Buckets[len(h.Buckets)-1].Count += count
			continue
		}
		h.Buckets = append(h.Buckets, Bucket{Upper: upper, Count: count})
	}
	// Fix total accounting: distribute remainder into the last bucket.
	var sum int64
	for _, b := range h.Buckets {
		sum += b.Count
	}
	if diff := h.Total - sum; diff != 0 && len(h.Buckets) > 0 {
		h.Buckets[len(h.Buckets)-1].Count += diff
	}
	return h
}

// histogramRanks lists, ascending and once each, the ranks BuildHistogram
// reads of n sorted values cut every per: 0, then per-1, 2·per-1, … while a
// whole bucket follows, then n-1.
func histogramRanks(n, per int) []int {
	ranks := make([]int, 1, n/per+2)
	for i := per - 1; i+per < n; i += per {
		if i > 0 {
			ranks = append(ranks, i)
		}
	}
	if n > 1 {
		ranks = append(ranks, n-1)
	}
	return ranks
}

// selectRanks permutes a so that a[r], for each r of ranks (ascending,
// distinct), is the value sort.Float64s(a) would put at r: the NaNs first,
// then the rest ascending by <. That value is unique but for the sign of a
// zero (−0 and +0 are equal) and the payload of a NaN, which the sort, not
// being stable, leaves open too.
func selectRanks(a []float64, ranks []int) {
	nans := 0
	for i, x := range a {
		if x != x {
			a[nans], a[i] = x, a[nans]
			nans++
		}
	}
	for len(ranks) > 0 && ranks[0] < nans {
		ranks = ranks[1:]
	}
	quickselect(a[nans:], nans, ranks, 2*bits.Len(uint(len(a))))
}

// quickselect is selectRanks over a, NaN-free and starting at rank off of the
// whole: a median-of-3 quickselect that goes on only into the sides holding a
// rank. A pivot that is its side's minimum splits off its equal run instead,
// so repeated values cost one pass each. It sorts a side of at most 12 values,
// and what remains after depth partitions, so no input makes it quadratic.
func quickselect(a []float64, off int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(a) <= 12 || depth == 0 {
			slices.Sort(a)
			return
		}
		depth--
		// Not the ends: partitionBelow leaves a side's largest value first.
		p := median3(a[len(a)/4], a[len(a)/2], a[len(a)/4*3])
		// a[:lt] < p, a[lt:gt] == p, a[gt:] >= p: a rank in
		// [off+lt, off+gt) already holds its value.
		lt := partitionBelow(a, p)
		gt := lt
		if lt == 0 {
			gt = partitionEqual(a, p)
		}
		i, _ := slices.BinarySearch(ranks, off+lt)
		j, _ := slices.BinarySearch(ranks, off+gt)
		quickselect(a[:lt], off, ranks[:i], depth)
		a, off, ranks = a[gt:], off+gt, ranks[j:]
	}
}

// partitionBelow moves the values of a below p to its front and returns how
// many there are. It is Lomuto's scheme without a branch on the comparison:
// every value is written back, and only the count depends on it.
func partitionBelow(a []float64, p float64) int {
	lt := 0
	for i, x := range a {
		a[i] = a[lt]
		a[lt] = x
		lt += b2i(x < p)
	}
	return lt
}

// partitionEqual is partitionBelow for the values equal to p, when none is
// below it.
func partitionEqual(a []float64, p float64) int {
	eq := 0
	for i, x := range a {
		a[i] = a[eq]
		a[eq] = x
		eq += b2i(!(p < x))
	}
	return eq
}

func median3(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = z
		if y < x {
			y = x
		}
	}
	return y
}

// SelectivityLE estimates P(col <= x).
func (h *Histogram) SelectivityLE(x float64) float64 {
	if h == nil || h.Total == 0 {
		return 0.5
	}
	if x < h.Lo {
		return 0
	}
	if x >= h.Hi {
		return 1
	}
	var cum int64
	lower := h.Lo
	for _, b := range h.Buckets {
		if x >= b.Upper {
			cum += b.Count
			lower = b.Upper
			continue
		}
		// Linear interpolation within the bucket.
		width := b.Upper - lower
		frac := 1.0
		if width > 0 {
			frac = (x - lower) / width
			frac = math.Max(0, math.Min(1, frac))
		}
		cum += int64(frac * float64(b.Count))
		break
	}
	return float64(cum) / float64(h.Total)
}

// SelectivityGT estimates P(col > x).
func (h *Histogram) SelectivityGT(x float64) float64 { return 1 - h.SelectivityLE(x) }

// SelectivityBetween estimates P(lo <= col <= hi).
func (h *Histogram) SelectivityBetween(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	s := h.SelectivityLE(hi) - h.SelectivityLE(lo)
	if s < 0 {
		s = 0
	}
	return s
}

// String renders the histogram compactly.
func (h *Histogram) String() string {
	if h == nil {
		return "hist(nil)"
	}
	return fmt.Sprintf("hist[%g..%g n=%d b=%d]", h.Lo, h.Hi, h.Total, len(h.Buckets))
}

// b2i is 1 for true and 0 for false; it compiles to a flag read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
