package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{3, 1, 2}, summary{1.5, 2, 2.5}},
		{[]float64{4, 1, 3, 2}, summary{1.75, 2.5, 3.25}},
		{[]float64{5, 4, 3, 2, 1}, summary{2, 3, 4}},
		{[]float64{7}, summary{7, 7, 7}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Fatalf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("the median of no values is not NaN")
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{8, 2, 2 * 56.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
		{1, 0, 1},
	} {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("signTest(%d, %d) = %v, want %v", c.wins, c.losses, got, c.want)
		}
	}
}

// TestCompareCountsPairs: B wins a pair it took less time in; a tie counts
// for neither side and leaves the sign test.
func TestCompareCountsPairs(t *testing.T) {
	a := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 11, 10}
	c := compare(a, b)
	if c.BWins != 9 || c.Ties != 1 || math.Abs(c.P-2*11.0/1024) > 1e-15 {
		t.Fatalf("compare = %+v; want 9 wins, 1 tie, p = 22/1024", c)
	}
	if c.A.Median != 10 || c.B.Median != 9 {
		t.Fatalf("medians %v and %v, want 10 and 9", c.A.Median, c.B.Median)
	}
}

// TestFirstDiff names the first line two outputs differ at, with each side's
// text of it: a changed line, a line one side lacks, and a missing final
// newline.
func TestFirstDiff(t *testing.T) {
	for _, c := range []struct {
		a, b   string
		line   int
		la, lb string
	}{
		{"x\ny\n", "x\ny\n", 0, "", ""},
		{"", "", 0, "", ""},
		{"x\ny\nz\n", "x\nY\nz\n", 2, "y", "Y"},
		{"x\ny\n", "x\n", 2, "y", ""},
		{"x\n", "x\ny\n", 2, "", "y"},
		{"x\ny", "x\ny\n", 2, "y", "y"},
		{"a\n", "b\n", 1, "a", "b"},
	} {
		line, la, lb := firstDiff([]byte(c.a), []byte(c.b))
		if line != c.line || la != c.la || lb != c.lb {
			t.Fatalf("firstDiff(%q, %q) = %d, %q, %q; want %d, %q, %q", c.a, c.b, line, la, lb, c.line, c.la, c.lb)
		}
	}
}
