package stats

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// countWithSet adds stream to a set sized for len(stream) insertions, then
// adds it again: a second pass must find every hash already there, through
// whatever cluster it sits in.
func countWithSet(t *testing.T, label string, stream []uint64) {
	t.Helper()
	s := newHashSet(len(stream))
	size := len(s.slots)
	if size&(size-1) != 0 || len(stream)*8 > size*7 || s.shift != uint(64-bits.TrailingZeros(uint(size))) {
		t.Fatalf("%s: %d slots (shift %d) for %d insertions", label, size, s.shift, len(stream))
	}
	want := make(map[uint64]struct{})
	for _, h := range stream {
		s.add(h)
		want[h] = struct{}{}
	}
	if got := s.count(); got != int64(len(want)) {
		t.Fatalf("%s: counted %d distinct hashes, the map holds %d", label, got, len(want))
	}
	for _, h := range stream {
		s.add(h)
	}
	if got := s.count(); got != int64(len(want)) {
		t.Fatalf("%s: adding the stream again moved the count to %d, want %d", label, got, len(want))
	}
}

// withHome returns k distinct non-zero hashes whose home slot in a table of
// size slots is home: the products h·0x9E3779B97F4A7C15 share their top bits.
func withHome(home uint64, k, size int) []uint64 {
	const golden = 0x9E3779B97F4A7C15
	inv := uint64(golden) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - golden*inv
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	out := make([]uint64, k)
	for j := range out {
		out[j] = (home<<shift | uint64(j+1)) * inv
		if (out[j]*golden)>>shift != home {
			panic("withHome: wrong home")
		}
	}
	return out
}

// TestHashSetCountsWhatTheMapCounted runs the distinct-hash set over crafted
// streams and random ones, each against a map[uint64]struct{}.
func TestHashSetCountsWhatTheMapCounted(t *testing.T) {
	countWithSet(t, "m = 0", nil)
	countWithSet(t, "m = 1", []uint64{42})
	countWithSet(t, "hash 0 alone", []uint64{0})
	countWithSet(t, "hash 0 repeated", []uint64{0, 0, 0, 0})
	countWithSet(t, "hash 0 among others", []uint64{7, 0, 7, 0, 1 << 63, 0})
	countWithSet(t, "all equal", []uint64{5, 5, 5, 5, 5, 5, 5, 5, 5})

	// 200 insertions get 256 slots.
	const m, size = 200, 256
	shared := withHome(17, 150, size)
	countWithSet(t, "one home slot", append(shared, make([]uint64, m-len(shared))...))
	// A run from the last slot wraps to slot 0; hashes at home in slot 0
	// then probe past the wrapped run.
	wrap := append(withHome(size-1, 40, size), withHome(0, 40, size)...)
	wrap = append(wrap, withHome(size-2, 40, size)...)
	countWithSet(t, "cluster wrapping past the last slot", append(wrap, wrap[:m-len(wrap)]...))
	full := withHome(size-1, m, size)
	countWithSet(t, "every insertion at the last slot", full)

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		n := rng.Intn(3000)
		// Few distinct values, or 64-bit hashes, or small ones near 0.
		spread := []uint64{1, 3, 50, 1 << 20, 0}[rng.Intn(5)]
		stream := make([]uint64, n)
		for i := range stream {
			if spread == 0 {
				stream[i] = rng.Uint64()
			} else {
				stream[i] = uint64(rng.Int63n(int64(spread)))
			}
		}
		countWithSet(t, fmt.Sprintf("random round %d (n %d, spread %d)", round, n, spread), stream)
	}
}
