package workload

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/admission"
	"repro/internal/simclock"
)

func TestArrivalProcessesStayInHorizonAndOrdered(t *testing.T) {
	procs := map[string]ArrivalProcess{
		"poisson": Poisson{RatePerSec: 100},
		"onoff":   OnOff{BurstRatePerSec: 200, BaseRatePerSec: 10, MeanOnMS: 500, MeanOffMS: 500},
		"pareto":  Pareto{Alpha: 1.5, MinGapMS: 5},
		"diurnal": Diurnal{PeakRatePerSec: 100, TroughRatePerSec: 10, PeriodMS: 10000},
	}
	const horizon = simclock.Time(20000)
	for name, p := range procs {
		times := p.Times(rand.New(rand.NewSource(1)), horizon)
		if len(times) == 0 {
			t.Fatalf("%s produced no arrivals over %v", name, horizon)
		}
		for i, at := range times {
			if at < 0 || at >= horizon {
				t.Fatalf("%s arrival %d at %v outside [0,%v)", name, i, at, horizon)
			}
			if i > 0 && at < times[i-1] {
				t.Fatalf("%s arrivals out of order at %d: %v < %v", name, i, at, times[i-1])
			}
		}
	}
	// The Poisson rate should be roughly honoured: 100/s over 20s ≈ 2000.
	n := len(Poisson{RatePerSec: 100}.Times(rand.New(rand.NewSource(7)), horizon))
	if n < 1600 || n > 2400 {
		t.Fatalf("poisson 100/s over 20s produced %d arrivals, want ~2000", n)
	}
	// The diurnal trough must be quieter than the peak: compare the first
	// quarter-period (trough-centred) against the second (peak-centred).
	d := Diurnal{PeakRatePerSec: 100, TroughRatePerSec: 5, PeriodMS: 20000}
	times := d.Times(rand.New(rand.NewSource(11)), horizon)
	early, mid := 0, 0
	for _, at := range times {
		switch {
		case at < 5000:
			early++
		case at < 15000:
			mid++
		}
	}
	if early >= mid {
		t.Fatalf("diurnal trough (%d arrivals) not quieter than peak (%d)", early, mid)
	}
}

// TestMixScheduleDeterminism pins the replayability contract: the same seed
// expands to the identical arrival sequence, a different seed does not, and
// editing one stream leaves the others' arrivals untouched.
func TestMixScheduleDeterminism(t *testing.T) {
	mix := Mix{
		Seed:    42,
		Horizon: 10000,
		Streams: []TenantStream{
			{Tenant: "gold", Class: "interactive", Queries: []string{"q1", "q2"}, Arrivals: Poisson{RatePerSec: 50}},
			{Tenant: "bronze", Class: "batch", Queries: []string{"r1"}, Arrivals: OnOff{BurstRatePerSec: 100, MeanOnMS: 1000, MeanOffMS: 1000}},
			{Tenant: "edge", Queries: []string{"s1"}, Arrivals: Pareto{Alpha: 1.3, MinGapMS: 10}},
		},
	}
	a, b := mix.Schedule(), mix.Schedule()
	if len(a) == 0 {
		t.Fatal("mix expanded to no arrivals")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule out of order at %d", i)
		}
	}

	other := mix
	other.Seed = 43
	c := other.Schedule()
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds replayed the identical schedule")
	}

	// Stream independence: changing bronze's process must not move gold's
	// arrivals (each stream draws from its own seeded rng).
	variant := mix
	variant.Streams = append([]TenantStream(nil), mix.Streams...)
	variant.Streams[1].Arrivals = Poisson{RatePerSec: 5}
	goldOf := func(arr []Arrival) []Arrival {
		var out []Arrival
		for _, x := range arr {
			if x.Item.Tenant == "gold" {
				out = append(out, x)
			}
		}
		return out
	}
	ga, gv := goldOf(a), goldOf(variant.Schedule())
	if len(ga) != len(gv) {
		t.Fatalf("editing bronze changed gold's arrival count: %d vs %d", len(ga), len(gv))
	}
	for i := range ga {
		if ga[i].At != gv[i].At || ga[i].Item != gv[i].Item {
			t.Fatalf("editing bronze moved gold arrival %d", i)
		}
	}
}

// TestMixSoakWeightedFairness is the satellite soak: four tenants with 4:2:1:1
// weights, bursty on/off arrivals, a saturated 4-slot machine, run under the
// race detector. It checks that no query is lost, the run drains (stall
// advance can never deadlock it), and the cumulative served-cost split lands
// within ±20% of the weights while every tenant stays backlogged.
func TestMixSoakWeightedFairness(t *testing.T) {
	clk := simclock.New()
	ctrl := admission.New(admission.Config{Clock: clk, Policy: admission.Policy{MaxConcurrent: 4}})
	weights := map[string]float64{"w4": 4, "w2": 2, "b1": 1, "b2": 1}
	for name, w := range weights {
		ctrl.RegisterTenant(admission.Tenant{Name: name, Weight: w})
	}
	const costMS = 50
	const perTenant = 250
	mix := Mix{Seed: 7, Horizon: 30000}
	for _, name := range []string{"w4", "w2", "b1", "b2"} {
		mix.Streams = append(mix.Streams, TenantStream{
			Tenant:  name,
			Queries: []string{"SELECT 1", "SELECT 2", "SELECT 3"},
			// Heavily oversubscribed even at the base rate, so every tenant
			// stays backlogged while bursts modulate queue growth on top.
			Arrivals:   OnOff{BurstRatePerSec: 120, BaseRatePerSec: 40, MeanOnMS: 2000, MeanOffMS: 2000},
			MaxQueries: perTenant,
		})
	}

	// Snapshot per-tenant accounting every 500 virtual ms; fairness is judged
	// at the last instant all four tenants were still backlogged.
	type snap struct {
		queuedMin int
		served    map[string]float64
	}
	var snaps []snap
	cancel := clk.Every(500, func(now simclock.Time) simclock.Time {
		s := snap{queuedMin: 1 << 30, served: map[string]float64{}}
		for _, ts := range ctrl.TenantStats() {
			if _, ok := weights[ts.Name]; !ok {
				continue
			}
			if ts.Queued < s.queuedMin {
				s.queuedMin = ts.Queued
			}
			s.served[ts.Name] = ts.ServedCostMS
		}
		snaps = append(snaps, s)
		return 0
	})
	defer cancel()

	res := RunMix(clk, mix, ServeAdmitted(ctrl, clk, func(Item) float64 { return costMS }))
	if len(res.Arrivals) != 4*perTenant {
		t.Fatalf("schedule expanded %d arrivals, want %d", len(res.Arrivals), 4*perTenant)
	}
	if res.Stats.Completed != len(res.Arrivals) || res.Stats.Failed != 0 {
		t.Fatalf("lost queries: %+v over %d arrivals", res.Stats, len(res.Arrivals))
	}
	if ctrl.Running() != 0 || ctrl.QueueDepth() != 0 {
		t.Fatalf("controller did not drain: running=%d queued=%d", ctrl.Running(), ctrl.QueueDepth())
	}

	best := -1
	for i, s := range snaps {
		if s.queuedMin > 0 && len(s.served) == len(weights) {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("no snapshot found with all four tenants backlogged")
	}
	served := snaps[best].served
	// Normalize by weight: under weighted-fair scheduling every tenant's
	// served-cost/weight should agree while all are backlogged.
	lo, hi := 0.0, 0.0
	for name, w := range weights {
		share := served[name] / w
		if lo == 0 || share < lo {
			lo = share
		}
		if share > hi {
			hi = share
		}
	}
	if lo <= 0 || hi/lo > 1.5 {
		t.Fatalf("fair shares diverged beyond +/-20%%: served=%v (spread %.2fx)", served, hi/lo)
	}
}

// TestRunMixIsTheQueueingRecursion replays one Poisson stream at 1.5x the
// capacity of a two-slot FIFO controller and requires every response time to
// equal, bit for bit, the multi-server FIFO recursion computed beside it: each
// arrival starts when it arrives or when the earliest slot frees, whichever is
// later, and holds that slot for its service. A grant stamped at any other
// instant than the release that made it moves a response.
func TestRunMixIsTheQueueingRecursion(t *testing.T) {
	const slots, serviceMS = 2, 20
	clk := simclock.New()
	ctrl := admission.New(admission.Config{Clock: clk, Policy: admission.Policy{MaxConcurrent: slots}})
	mix := Mix{Seed: 3, Horizon: 5000, Streams: []TenantStream{
		{Tenant: "t", Queries: []string{"SELECT 1"}, Arrivals: Poisson{RatePerSec: 150}},
	}}
	res := RunMix(clk, mix, ServeAdmitted(ctrl, clk, func(Item) float64 { return serviceMS }))

	free := make([]simclock.Time, slots)
	queued := 0
	for i, a := range res.Arrivals {
		k := 0
		for j := range free {
			if free[j] < free[k] {
				k = j
			}
		}
		start := max(a.At, free[k])
		if start > a.At {
			queued++
		}
		free[k] = start + serviceMS
		want := (start - a.At) + serviceMS
		if r := res.Results[i]; r.Err != nil || r.ResponseTime != want {
			t.Fatalf("arrival %d at %v: response %v err %v, the recursion gives %v", i, a.At, r.ResponseTime, r.Err, want)
		}
	}
	if queued < len(res.Arrivals)/2 {
		t.Fatalf("only %d of %d arrivals queued: the stream does not overload the slots", queued, len(res.Arrivals))
	}
}

// TestRunMixReportsAStall: an arrival whose Serve never resolves it ends the
// replay with ErrStalled once no event is left, beside the ones that resolved.
func TestRunMixReportsAStall(t *testing.T) {
	clk := simclock.New()
	mix := Mix{Seed: 1, Horizon: 1000, Streams: []TenantStream{
		{Tenant: "t", Queries: []string{"SELECT 1"}, Arrivals: Poisson{RatePerSec: 20}},
	}}
	res := RunMix(clk, mix, func(idx int, _ Item, done func(simclock.Time, error)) {
		if idx%2 == 0 {
			clk.ScheduleAfter(5, func(simclock.Time) { done(5, nil) })
		}
	})
	if len(res.Arrivals) < 4 {
		t.Fatalf("only %d arrivals", len(res.Arrivals))
	}
	for i, r := range res.Results {
		if stalled := errors.Is(r.Err, ErrStalled); stalled != (i%2 == 1) {
			t.Fatalf("arrival %d: err %v", i, r.Err)
		}
	}
	if want := len(res.Arrivals) / 2; res.Stats.Failed != want || res.Stats.Completed != len(res.Arrivals)-want {
		t.Fatalf("stats %+v over %d arrivals", res.Stats, len(res.Arrivals))
	}
}
