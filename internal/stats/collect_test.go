package stats_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// collectColumnRef is CollectColumn as it was before it read the typed
// payload: every cell boxed into a Value, hashed, compared and converted
// through the Value methods, and the histogram built over a copy. The typed
// collector must reproduce it field for field.
func collectColumnRef(col sqltypes.Column, c *colbatch.Column, n int) *stats.ColumnStats {
	return collectColumnWith(stats.BuildHistogram, col, c, n)
}

// collectColumnWith is collectColumnRef with build in place of
// stats.BuildHistogram.
func collectColumnWith(build func([]float64, int) *stats.Histogram, col sqltypes.Column, c *colbatch.Column, n int) *stats.ColumnStats {
	cs := &stats.ColumnStats{Name: col.Name, Type: col.Type, RowCount: int64(n)}
	distinct := make(map[uint64]struct{})
	var numeric []float64
	for i := 0; i < n; i++ {
		v := c.Value(i)
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
		cs.Hist = build(append([]float64(nil), numeric...), stats.DefaultHistogramBuckets)
	}
	return cs
}

// requireSameStats compares every field, floats by their bits (NaN bounds and
// -0 included).
func requireSameStats(t *testing.T, label string, want, got *stats.ColumnStats) {
	t.Helper()
	bits := func(v sqltypes.Value) any {
		if v.Kind() == sqltypes.KindFloat {
			return math.Float64bits(v.Float())
		}
		return v
	}
	if want.Name != got.Name || want.Type != got.Type || want.RowCount != got.RowCount ||
		want.NullCount != got.NullCount || want.Distinct != got.Distinct || want.WireBytes != got.WireBytes {
		t.Fatalf("%s: got %+v, want %+v", label, got, want)
	}
	if want.Min.Kind() != got.Min.Kind() || bits(want.Min) != bits(got.Min) ||
		want.Max.Kind() != got.Max.Kind() || bits(want.Max) != bits(got.Max) {
		t.Fatalf("%s: bounds [%#v, %#v], want [%#v, %#v]", label, got.Min, got.Max, want.Min, want.Max)
	}
	requireSameHistogram(t, label, want.Hist, got.Hist)
}

// requireSameHistogram compares two histograms, floats by their bits.
func requireSameHistogram(t *testing.T, label string, want, got *stats.Histogram) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: histogram %v, want %v", label, got, want)
	}
	if want == nil {
		return
	}
	wh, gh := *want, *got
	if math.Float64bits(wh.Lo) != math.Float64bits(gh.Lo) || math.Float64bits(wh.Hi) != math.Float64bits(gh.Hi) || wh.Total != gh.Total {
		t.Fatalf("%s: histogram %v, want %v", label, got, want)
	}
	if !reflect.DeepEqual(bucketBits(wh.Buckets), bucketBits(gh.Buckets)) {
		t.Fatalf("%s: buckets %v, want %v", label, gh.Buckets, wh.Buckets)
	}
}

func bucketBits(bs []stats.Bucket) [][2]uint64 {
	out := make([][2]uint64, len(bs))
	for i, b := range bs {
		out[i] = [2]uint64{math.Float64bits(b.Upper), uint64(b.Count)}
	}
	return out
}

// TestCollectColumnMatchesTheBoxedCollector runs the typed collector and the
// boxed reference over every column of the sample schema at scales 1, 20 and
// 50, and over random columns: NULL-heavy ones, floats with NaN and -0, and
// Mixed columns that hold several kinds.
func TestCollectColumnMatchesTheBoxedCollector(t *testing.T) {
	for _, scale := range []int{1, 20, 50} {
		for _, gen := range storage.SampleSchema(scale) {
			tab, err := gen.Generate(42)
			if err != nil {
				t.Fatal(err)
			}
			v := tab.View()
			cols, n := v.Columns(), v.RowCount()
			for i, col := range tab.Schema().Columns {
				label := gen.Name + "." + col.Name
				requireSameStats(t, label, collectColumnRef(col, cols[i], n), stats.CollectColumn(col, cols[i], n))
			}
			v.Close()
		}
	}

	rng := rand.New(rand.NewSource(3))
	// A narrow column draws floats from NaN, -0 and 0 only, so that both
	// bounds are a NaN or a signed zero, where only Compare's order (a NaN or
	// an equal zero never replaces a bound) gives the reference's bits.
	var narrow bool
	cell := func(kind sqltypes.Kind) sqltypes.Value {
		switch kind {
		case sqltypes.KindInt:
			return sqltypes.NewInt(rng.Int63n(40) - 20)
		case sqltypes.KindFloat:
			if narrow {
				return sqltypes.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0}[rng.Intn(3)])
			}
			switch rng.Intn(8) {
			case 0:
				return sqltypes.NewFloat(math.NaN())
			case 1:
				return sqltypes.NewFloat(math.Copysign(0, -1))
			case 2:
				return sqltypes.NewFloat(0)
			default:
				return sqltypes.NewFloat(float64(rng.Intn(80)-40) / 4)
			}
		case sqltypes.KindString:
			return sqltypes.NewString([]string{"", "a", "ab", "b", "wörld"}[rng.Intn(5)])
		default:
			return sqltypes.NewBool(rng.Intn(2) == 0)
		}
	}
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool}
	for round := 0; round < 400; round++ {
		n := rng.Intn(300)
		kind := kinds[rng.Intn(len(kinds))]
		declared := kinds[rng.Intn(len(kinds))]
		if rng.Intn(2) == 0 {
			declared = kind
		}
		nullFrac := []float64{0, 0.2, 0.95, 1}[rng.Intn(4)]
		mixed := rng.Intn(4) == 0
		narrow = rng.Intn(3) == 0
		cells := make([]sqltypes.Value, n)
		for i := range cells {
			switch {
			case rng.Float64() < nullFrac:
				cells[i] = sqltypes.Null
			case mixed:
				cells[i] = cell(kinds[rng.Intn(len(kinds))])
			default:
				cells[i] = cell(kind)
			}
		}
		c := colbatch.NewColumn(cells)
		col := sqltypes.Column{Name: "x", Type: declared}
		requireSameStats(t, "random column", collectColumnRef(col, c, n), stats.CollectColumn(col, c, n))
	}
}

// TestCollectColumnAllocatesOnlyItsBuffers: collecting 10k non-NULL floats
// allocates the distinct-hash set (16 384 slots of 8 B, at most 7/8 full: 13 B
// a cell), in whose slots the histogram then selects, and a few small
// records. A growing map of hashes costs about 67 B a cell.
func TestCollectColumnAllocatesOnlyItsBuffers(t *testing.T) {
	const n = 10000
	c, col := floatColumn(n, rand.New(rand.NewSource(1)))
	bytes := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs := stats.CollectColumn(col, c, n)
		runtime.ReadMemStats(&after)
		if cs.Distinct != n || cs.Hist == nil {
			t.Fatalf("collected %+v", cs)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(24*n + 4096); bytes > limit {
		t.Fatalf("collecting %d floats allocated %d B (%.1f B a cell), want at most %d", n, bytes, float64(bytes)/n, limit)
	}
}

func floatColumn(n int, rng *rand.Rand) (*colbatch.Column, sqltypes.Column) {
	cells := make([]sqltypes.Value, n)
	for i := range cells {
		cells[i] = sqltypes.NewFloat(rng.Float64() * 10000)
	}
	return colbatch.NewColumn(cells), sqltypes.Column{Name: "x", Type: sqltypes.KindFloat}
}

var collected *stats.ColumnStats

// BenchmarkCollectColumn collects one column's statistics: uniform floats
// (every cell distinct) and ints of 50 distinct values.
func BenchmarkCollectColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	few := make([]sqltypes.Value, 100000)
	for i := range few {
		few[i] = sqltypes.NewInt(rng.Int63n(50))
	}
	floats10k, floatCol := floatColumn(10000, rng)
	floats100k, _ := floatColumn(100000, rng)
	for _, bc := range []struct {
		name string
		c    *colbatch.Column
		n    int
		col  sqltypes.Column
	}{
		{"floats_10k", floats10k, 10000, floatCol},
		{"floats_100k", floats100k, 100000, floatCol},
		{"ints_100k_few_distinct", colbatch.NewColumn(few), len(few), sqltypes.Column{Name: "k", Type: sqltypes.KindInt}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				collected = stats.CollectColumn(bc.col, bc.c, bc.n)
			}
		})
	}
}
