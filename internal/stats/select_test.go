package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQuickselectFallsBackToASort cuts the selection's partition budget to
// 0–3, so that the sort it falls back to when the budget runs out, and not
// only the partitions, has to place every rank.
func TestQuickselectFallsBackToASort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(3000)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(1 + rng.Intn(n)))
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		ranks := histogramRanks(n, max(1, n/(1+rng.Intn(40))))
		quickselect(a, 0, ranks, round%4)
		for _, r := range ranks {
			if a[r] != sorted[r] {
				t.Fatalf("round %d: %d values, rank %d holds %g, want %g", round, n, r, a[r], sorted[r])
			}
		}
	}
}
