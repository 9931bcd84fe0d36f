package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// buildHistogramRef is BuildHistogram as it was before it selected its
// ranks: a full sort.Float64s of the values, then the same bucket walk.
func buildHistogramRef(values []float64, buckets int) *stats.Histogram {
	if len(values) == 0 || buckets <= 0 {
		return nil
	}
	sorted := values
	sort.Float64s(sorted)
	h := &stats.Histogram{Lo: sorted[0], Hi: sorted[len(sorted)-1], Total: int64(len(sorted))}
	per := len(sorted) / buckets
	if per == 0 {
		per = 1
	}
	for i := per - 1; i < len(sorted); i += per {
		upper := sorted[i]
		if i+per >= len(sorted) {
			upper = sorted[len(sorted)-1]
			i = len(sorted) - 1
		}
		count := int64(per)
		if len(h.Buckets) > 0 && h.Buckets[len(h.Buckets)-1].Upper == upper {
			h.Buckets[len(h.Buckets)-1].Count += count
			continue
		}
		h.Buckets = append(h.Buckets, stats.Bucket{Upper: upper, Count: count})
	}
	var sum int64
	for _, b := range h.Buckets {
		sum += b.Count
	}
	if diff := h.Total - sum; diff != 0 && len(h.Buckets) > 0 {
		h.Buckets[len(h.Buckets)-1].Count += diff
	}
	return h
}

// forgiveOpenBounds copies want's bound into got wherever the two differ only
// in what the sort itself leaves open, so that a bit comparison may follow.
// The value at a rank is unique, but sort.Float64s is not stable: between a
// −0 and a +0 (equal under <) and between two NaNs it picks no particular one.
// So a NaN bound may be any NaN, and a zero bound may have either sign when
// the input holds both zeros.
func forgiveOpenBounds(want, got *stats.Histogram, bothZeros bool) {
	if want == nil || got == nil {
		return
	}
	open := func(w float64, g *float64) {
		if (math.IsNaN(w) && math.IsNaN(*g)) || (bothZeros && w == 0 && *g == 0) {
			*g = w
		}
	}
	open(want.Lo, &got.Lo)
	open(want.Hi, &got.Hi)
	for i := range min(len(want.Buckets), len(got.Buckets)) {
		open(want.Buckets[i].Upper, &got.Buckets[i].Upper)
	}
}

func holdsBothZeros(values []float64) bool {
	var neg, pos bool
	for _, x := range values {
		if x == 0 {
			if math.Signbit(x) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}

// TestHistogramMatchesTheSortedReference holds BuildHistogram's selection to
// the sort it replaced, bound by bound and bucket by bucket, floats by their
// bits but for the open cases forgiveOpenBounds names: sizes 1 to 100k, bucket
// counts 1 to 40 and 32, uniform floats and few-distinct ints, as drawn,
// sorted, reversed and all equal, with NaNs (several payloads), ±Inf and ±0
// mixed in.
func TestHistogramMatchesTheSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	sizes := []int{1, 2, 3, 5, 12, 13, 31, 32, 33, 63, 64, 65, 100, 1000, 4097, 10000, 100000}
	for round := 0; round < 400; round++ {
		n := sizes[round%len(sizes)]
		if round >= 2*len(sizes) {
			n = 1 + rng.Intn([]int{40, 500, 20000}[rng.Intn(3)])
		}
		buckets := stats.DefaultHistogramBuckets
		if rng.Intn(2) == 0 {
			buckets = 1 + rng.Intn(40)
		}
		values := make([]float64, n)
		distinct := []int{0, 1, 2, 7, 60}[rng.Intn(5)] // 0: uniform floats
		for i := range values {
			if distinct == 0 {
				values[i] = rng.Float64()*2000 - 1000
			} else {
				values[i] = float64(rng.Intn(distinct) - distinct/2)
			}
		}
		if rng.Intn(3) == 0 {
			for k := rng.Intn(1 + n/10); k >= 0; k-- {
				values[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
		}
		order := []string{"drawn", "sorted", "reversed", "equal"}[rng.Intn(4)]
		switch order {
		case "sorted":
			sort.Float64s(values)
		case "reversed":
			sort.Sort(sort.Reverse(sort.Float64Slice(values)))
		case "equal":
			for i := range values {
				values[i] = values[0]
			}
		}
		label := fmt.Sprintf("round %d: %d values (%s, %d distinct), %d buckets", round, n, order, distinct, buckets)
		bothZeros := holdsBothZeros(values)
		want := buildHistogramRef(append([]float64(nil), values...), buckets)
		got := stats.BuildHistogram(values, buckets)
		forgiveOpenBounds(want, got, bothZeros)
		requireSameHistogram(t, label, want, got)
	}
}

// TestStatsAfterRandomWritesMatchTheBoxedReference writes NaN, −0, +0, NULL
// and ordinary values at random into a float and an int column of a generated
// table (a float written into the int column makes it Mixed), and after every
// write holds each column's View.Stats to the boxed reference collector with
// the sort-based histogram, run from scratch on that version's cells. Floats
// compare by bits but for forgiveOpenBounds' open cases.
func TestStatsAfterRandomWritesMatchTheBoxedReference(t *testing.T) {
	gen := storage.SampleSchema(50)[0]
	tab, err := gen.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	schema := tab.Schema()
	var written []int
	for i, col := range schema.Columns {
		if col.Name == "o_amount" || col.Name == "o_qty" {
			written = append(written, i)
		}
	}
	if len(written) != 2 {
		t.Fatalf("orders has no o_amount and o_qty: %v", schema)
	}
	rng := rand.New(rand.NewSource(17))
	floats := []sqltypes.Value{sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0), sqltypes.Null}
	for step := 0; step < 300; step++ {
		target := written[rng.Intn(len(written))]
		v := floats[rng.Intn(len(floats))]
		switch {
		case schema.Columns[target].Type == sqltypes.KindInt && rng.Intn(4) != 0:
			v = sqltypes.NewInt(rng.Int63n(7) - 3)
		case rng.Intn(2) == 0:
			v = sqltypes.NewFloat(float64(rng.Intn(200) - 100))
		}
		if err := tab.UpdateAt(rng.Intn(gen.Rows), target, v); err != nil {
			t.Fatal(err)
		}
		view := tab.View()
		got, cols, n := view.Stats().Clone(), view.Columns(), view.RowCount()
		view.Close()
		for i, col := range schema.Columns {
			want := collectColumnWith(buildHistogramRef, col, cols[i], n)
			g := got.Columns[col.Name]
			want.WireBytes = g.WireBytes
			var numeric []float64
			for r := 0; r < n; r++ {
				if cell := cols[i].Value(r); cell.IsNumeric() {
					numeric = append(numeric, cell.Float())
				}
			}
			forgiveOpenBounds(want.Hist, g.Hist, holdsBothZeros(numeric))
			requireSameStats(t, fmt.Sprintf("step %d (%v into %s), %s", step, v, schema.Columns[target].Name, col.Name), want, g)
		}
	}
}
