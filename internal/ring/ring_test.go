package ring

import (
	"sync"
	"testing"
)

// TestRingGrowsOnDemand: a ring costs what it holds, never its bound (the
// benchmark's live-heap gate would see a preallocated 4096-slot array per
// sequence), and grows no further once it reaches the bound.
func TestRingGrowsOnDemand(t *testing.T) {
	r := New[int](1000)
	if cap(r.buf) != 0 {
		t.Fatalf("empty ring allocated %d slots", cap(r.buf))
	}
	for i := 0; i < 10; i++ {
		r.Push(i)
	}
	if len(r.buf) > 16 {
		t.Fatalf("10 values cost %d slots under a bound of 1000", len(r.buf))
	}
	for i := 10; i < 5000; i++ {
		r.Push(i)
		if len(r.buf) > 1000 {
			t.Fatalf("backing array grew to %d, past the bound", len(r.buf))
		}
	}
	if r.Len() != 1000 || r.Total() != 5000 || r.Evicted() != 4000 {
		t.Fatalf("len=%d total=%d evicted=%d, want 1000/5000/4000", r.Len(), r.Total(), r.Evicted())
	}
}

// TestRingKeepsTheNewestInOrder walks a ring whose bound is no power of two
// through growth and several wraps, checking the window after every push.
func TestRingKeepsTheNewestInOrder(t *testing.T) {
	const bound = 11
	r := New[int](bound)
	if r.Tail(0) != nil || r.Len() != 0 {
		t.Fatal("empty ring is not empty")
	}
	for i := 0; i < 5*bound; i++ {
		r.Push(i)
		want := min(i+1, bound)
		if r.Len() != want {
			t.Fatalf("after %d pushes len = %d, want %d", i+1, r.Len(), want)
		}
		all := r.Tail(0)
		for k, v := range all {
			if v != i+1-want+k || *r.At(k) != v {
				t.Fatalf("after %d pushes window = %v (At(%d) = %d)", i+1, all, k, *r.At(k))
			}
		}
		if last := r.Tail(1); len(last) != 1 || last[0] != i {
			t.Fatalf("Tail(1) = %v, want [%d]", last, i)
		}
		if three := r.Tail(3); len(three) != min(3, want) || three[len(three)-1] != i {
			t.Fatalf("Tail(3) = %v after %d pushes", three, i+1)
		}
	}
	*r.At(0) = -1 // At is in place: a completion updates its entry
	if r.Tail(0)[0] != -1 {
		t.Fatal("At did not return the stored slot")
	}
	if got := r.Tail(100); len(got) != bound {
		t.Fatalf("Tail past Len returned %d values, want all %d", len(got), bound)
	}
}

// TestRingDropCutsTheOldest: QCC's age cut drops a prefix; the window keeps
// its order through later growth and wraps, and dropped values count as
// evicted.
func TestRingDropCutsTheOldest(t *testing.T) {
	r := New[int](8)
	r.Drop(3) // empty: a no-op
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	r.Drop(0)
	r.Drop(4)
	if got := r.Tail(0); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("after Drop(4) window = %v, want [4 5]", got)
	}
	for i := 6; i < 20; i++ {
		r.Push(i)
	}
	if got := r.Tail(0); len(got) != 8 || got[0] != 12 || got[7] != 19 {
		t.Fatalf("window after refill = %v, want 12..19", got)
	}
	r.Drop(100)
	if r.Len() != 0 || r.Evicted() != 20 || r.Tail(0) != nil {
		t.Fatalf("Drop past Len: len=%d evicted=%d", r.Len(), r.Evicted())
	}
	r.Push(20)
	if got := r.Tail(0); len(got) != 1 || got[0] != 20 {
		t.Fatalf("push after emptying = %v", got)
	}
}

// TestLogIsConcurrentAndNilSafe: the locked form under writers and readers
// (the -race target), and the nil log every nil-safe owner relies on.
func TestLogIsConcurrentAndNilSafe(t *testing.T) {
	l := NewLog[int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(w)
				if i%50 == 0 {
					mine := l.Select(func(v *int) bool { return *v == w })
					if len(mine) > 32 || len(l.Tail(0)) > 32 {
						t.Errorf("log exceeded its bound")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 32 || l.Evicted() != 8*500-32 {
		t.Fatalf("len=%d evicted=%d, want 32/%d", l.Len(), l.Evicted(), 8*500-32)
	}

	var none *Log[int]
	none.Add(1)
	if none.Len() != 0 || none.Evicted() != 0 || none.Tail(0) != nil || none.Select(func(*int) bool { return true }) != nil {
		t.Fatal("nil log is not empty")
	}
}
