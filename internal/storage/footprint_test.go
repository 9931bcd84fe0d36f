package storage

import (
	"runtime"
	"testing"
)

// liveAfter returns the heap that stays live once build has run and its
// result is still held: HeapAlloc after two collections, less the heap before.
func liveAfter(t *testing.T, build func() any) uint64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(kept)
	return ms.HeapAlloc - before
}

// The generated sample schema holds each cell once, in its typed column, and
// each index entry, sorted or hashed, is a 4 B position: at scale 10 the
// tables stay under 2.95 MiB with their indexes (2.83 measured) and 1.2 MiB
// without them (the single-site oracle's form). Rows of 32-byte values took
// 3.55 MiB, sorted entries carrying their value 1.15 MiB more, and 8 B
// positions 3.03 MiB in all. Under the race detector the indexed limit is
// raceHeapMiB higher; the unindexed tables have no hash lists and keep
// theirs. Not parallel: it reads the whole heap.
func TestGeneratedTableFootprint(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name    string
		indexed bool
		limit   float64 // MiB
	}{{"indexed", true, 2.95}, {"unindexed", false, 1.2}} {
		live := liveAfter(t, func() any {
			var tabs []*Table
			for _, g := range SampleSchema(10) {
				if !c.indexed {
					g.Indexes = nil
				}
				tab, err := g.Generate(42)
				if err != nil {
					t.Fatal(err)
				}
				tabs = append(tabs, tab)
			}
			return tabs
		})
		mb, limit := float64(live)/mib, c.limit
		if c.indexed {
			limit += raceHeapMiB
		}
		t.Logf("%s: %.2f MiB live", c.name, mb)
		if mb > limit {
			t.Errorf("%s: the generated schema keeps %.2f MiB live, want at most %.2f", c.name, mb, limit)
		}
	}
}
