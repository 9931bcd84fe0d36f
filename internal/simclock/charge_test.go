package simclock

import (
	"math"
	"sync"
	"testing"
)

func TestChargeStacksSequentially(t *testing.T) {
	c := New()
	s1, e1 := c.Charge(10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first charge [%v,%v], want [0,10]", s1, e1)
	}
	s2, e2 := c.Charge(5)
	if s2 != 10 || e2 != 15 {
		t.Fatalf("second charge [%v,%v], want [10,15]", s2, e2)
	}
	if c.Now() != 15 {
		t.Fatalf("clock %v, want 15", c.Now())
	}
}

func TestChargeNegativeClampsToZero(t *testing.T) {
	c := New()
	s, e := c.Charge(-3)
	if s != 0 || e != 0 || c.Now() != 0 {
		t.Fatalf("negative charge [%v,%v] now %v, want all zero", s, e, c.Now())
	}
}

// TestChargeConcurrentDisjointIntervals is the Charge contract under
// contention: every reservation gets a disjoint interval and the final clock
// is the exact sum of the deltas, independent of interleaving.
func TestChargeConcurrentDisjointIntervals(t *testing.T) {
	c := New()
	const n = 64
	type iv struct{ s, e Time }
	ivs := make([]iv, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, e := c.Charge(Time(i + 1))
			ivs[i] = iv{s, e}
		}(i)
	}
	wg.Wait()
	var sum Time
	for i := 0; i < n; i++ {
		sum += Time(i + 1)
		if ivs[i].e-ivs[i].s != Time(i+1) {
			t.Fatalf("charge %d got width %v", i, ivs[i].e-ivs[i].s)
		}
		for j := 0; j < i; j++ {
			if ivs[i].s < ivs[j].e && ivs[j].s < ivs[i].e {
				t.Fatalf("intervals overlap: %v and %v", ivs[i], ivs[j])
			}
		}
	}
	if math.Abs(float64(c.Now()-sum)) > 1e-9 {
		t.Fatalf("clock %v, want %v", c.Now(), sum)
	}
}

func TestChargeRunsDueEvents(t *testing.T) {
	c := New()
	var fired []Time
	c.ScheduleAt(5, func(now Time) { fired = append(fired, now) })
	c.Charge(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("event fired %v, want once at 5", fired)
	}
}

func TestChargeInterleavesWithAdvance(t *testing.T) {
	c := New()
	c.AdvanceTo(100)
	s, e := c.Charge(10)
	if s != 100 || e != 110 {
		t.Fatalf("charge after advance [%v,%v], want [100,110]", s, e)
	}
}

// TestEveryCancelConcurrent cancels a ticker while another goroutine is
// advancing the clock; under -race this pins down the stopped-flag guard.
func TestEveryCancelConcurrent(t *testing.T) {
	c := New()
	var mu sync.Mutex
	ticks := 0
	cancel := c.Every(1, func(now Time) Time {
		mu.Lock()
		ticks++
		mu.Unlock()
		return 0
	})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Charge(1)
		}
	}()
	go func() {
		defer wg.Done()
		cancel()
	}()
	wg.Wait()
	mu.Lock()
	after := ticks
	mu.Unlock()
	c.AdvanceTo(c.Now() + 10)
	mu.Lock()
	final := ticks
	mu.Unlock()
	if final != after {
		t.Fatalf("ticker fired %d more times after cancel settled", final-after)
	}
}
