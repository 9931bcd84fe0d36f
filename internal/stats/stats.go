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
	"sort"

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
// cell. A Mixed column goes cell by cell.
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
	distinct := make(map[uint64]struct{})
	var numeric []float64
	histogram := col.Type == sqltypes.KindInt || col.Type == sqltypes.KindFloat
	if histogram && (c.Kind == sqltypes.KindInt || c.Kind == sqltypes.KindFloat) {
		numeric = make([]float64, 0, n-int(cs.NullCount))
	}
	switch c.Kind {
	case sqltypes.KindInt:
		var lo, hi int64
		seen := false
		for i, v := range c.Ints[:n] {
			if null(i) {
				continue
			}
			distinct[sqltypes.HashInt64(v)] = struct{}{}
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
			if numeric != nil {
				numeric = append(numeric, float64(v))
			}
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
			distinct[sqltypes.HashFloat64(v)] = struct{}{}
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
			if numeric != nil {
				numeric = append(numeric, v)
			}
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
			distinct[sqltypes.HashString(v)] = struct{}{}
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
			distinct[sqltypes.HashBool(v)] = struct{}{}
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
	cs.Distinct = int64(len(distinct))
	if len(numeric) > 0 {
		cs.Hist = BuildHistogram(numeric, DefaultHistogramBuckets)
	}
	return cs
}

// collectCells is CollectColumn over the cells of a Mixed column.
func collectCells(cs *ColumnStats, col sqltypes.Column, c *colbatch.Column, n int) {
	distinct := make(map[uint64]struct{})
	var numeric []float64
	for _, v := range c.Mixed[:n] {
		if v.IsNull() {
			cs.NullCount++
			continue
		}
		distinct[v.Hash()] = struct{}{}
		if cs.Min.IsNull() || sqltypes.Compare(v, cs.Min) < 0 {
			cs.Min = v
		}
		if cs.Max.IsNull() || sqltypes.Compare(v, cs.Max) > 0 {
			cs.Max = v
		}
		if v.IsNumeric() {
			numeric = append(numeric, v.Float())
		}
	}
	cs.Distinct = int64(len(distinct))
	if len(numeric) > 0 && (col.Type == sqltypes.KindInt || col.Type == sqltypes.KindFloat) {
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
// It sorts values in place: the caller hands over a slice it no longer reads.
func BuildHistogram(values []float64, buckets int) *Histogram {
	if len(values) == 0 || buckets <= 0 {
		return nil
	}
	sorted := values
	sort.Float64s(sorted)
	h := &Histogram{Lo: sorted[0], Hi: sorted[len(sorted)-1], Total: int64(len(sorted))}
	per := len(sorted) / buckets
	if per == 0 {
		per = 1
	}
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
