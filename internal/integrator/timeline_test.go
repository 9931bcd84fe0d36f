package integrator

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The columnar merge's virtual schedule, on hand-written and random
// arrival/work sequences. overlapped is a closed form; stepwise below is the
// same schedule spelled out as the cursor it describes, and the two must agree.

// stepwise walks the II's cursor through the pulls: before each pull it
// advances by the share of mergeTime the work priced since the previous pull
// earns, then waits for the batch; after the last pull it adds what is left, so
// the shares sum to mergeTime by construction. It returns the final cursor and
// every cursor position on the way.
func stepwise(pulls []pull, idle, total float64, mergeTime simclock.Time) (simclock.Time, []simclock.Time) {
	var cursor, done simclock.Time
	var trail []simclock.Time
	for _, p := range pulls {
		var upTo simclock.Time
		if total > idle {
			upTo = mergeTime * simclock.Time((p.before-idle)/(total-idle))
		}
		cursor = max(cursor+(upTo-done), p.arrive)
		done = upTo
		trail = append(trail, cursor)
	}
	cursor += mergeTime - done
	return cursor, append(trail, cursor)
}

func TestMergeScheduleCases(t *testing.T) {
	cases := []struct {
		name        string
		pulls       []pull
		idle, total float64
		mergeTime   simclock.Time
		want        simclock.Time
	}{
		{
			name:  "every batch at one instant: store-and-forward, exactly",
			pulls: []pull{{5, 0}, {5, 30}, {5, 80}},
			total: 100, mergeTime: 10, want: 15,
		},
		{
			name:  "work far smaller than the gaps: last arrival plus the last step",
			pulls: []pull{{10, 0}, {20, 40}, {30, 90}},
			total: 100, mergeTime: 0.5, want: 30 + 0.5*0.1,
		},
		{
			name:  "build side over before the probe side starts: only the work after the last batch is left",
			pulls: []pull{{2, 0}, {4, 10}, {6, 20}, {50, 30}, {60, 60}, {70, 90}},
			total: 100, mergeTime: 10, want: 70 + 10*0.1,
		},
		{
			name:  "work far larger than the gaps: the first arrival plus all of it",
			pulls: []pull{{1, 0}, {2, 30}, {3, 60}},
			total: 100, mergeTime: 100, want: 101,
		},
		{
			name:  "a late batch the merge is not ready for does not hold it up",
			pulls: []pull{{1, 0}, {9, 10}},
			total: 100, mergeTime: 100, want: 101,
		},
		{
			name:  "no work: the slowest fragment",
			pulls: []pull{{10, 0}, {70, 0}},
			want:  70,
		},
		{
			name:  "only the node's fixed overhead: it follows the last arrival",
			pulls: []pull{{10, 0.5}, {70, 0.5}},
			idle:  0.5, total: 0.5, mergeTime: 0.5, want: 70.5,
		},
		{
			name:  "the fixed overhead is no work done early",
			pulls: []pull{{5, 0.5}, {5, 30.5}},
			idle:  0.5, total: 100.5, mergeTime: 10, want: 15,
		},
		{
			name:  "no batch at all: the merge alone",
			total: 1, mergeTime: 0.5, want: 0.5,
		},
	}
	for _, c := range cases {
		got := overlapped(c.pulls, c.idle, c.total, c.mergeTime)
		if got != c.want {
			t.Errorf("%s: merge ends at %v, want %v", c.name, got, c.want)
		}
		if ref, _ := stepwise(c.pulls, c.idle, c.total, c.mergeTime); math.Abs(float64(got-ref)) > 1e-9 {
			t.Errorf("%s: merge ends at %v, the cursor walked step by step at %v", c.name, got, ref)
		}
	}
}

// TestMergeScheduleProperties: over seeded random schedules the merge ends
// no earlier than its last arrival and no later than store-and-forward (both
// exactly, not within a tolerance), where the step-by-step cursor ends, whose
// shares sum to mergeTime and which never moves backwards; a batch arriving
// later never makes it end earlier; and the arrivals take() drops, those not
// later than an earlier one, never decide it.
func TestMergeScheduleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		idle := []float64{0, 0.5}[rng.Intn(2)]
		mergeTime := simclock.Time(rng.Float64() * []float64{0.01, 1, 50}[rng.Intn(3)])
		pulls := make([]pull, rng.Intn(12))
		before, slowest := idle, simclock.Time(0)
		for i := range pulls {
			if rng.Intn(3) > 0 {
				before += rng.Float64() * 10
			}
			pulls[i] = pull{arrive: simclock.Time(rng.Float64() * 40), before: before}
			if rng.Intn(4) == 0 && i > 0 {
				pulls[i].arrive = pulls[i-1].arrive
			}
			slowest = max(slowest, pulls[i].arrive)
		}
		total := before + float64(rng.Intn(2))*rng.Float64()*10

		end := overlapped(pulls, idle, total, mergeTime)
		if end < slowest || end < mergeTime || end > slowest+mergeTime {
			t.Fatalf("trial %d: merge ends at %v, outside [%v, %v + %v]", trial, end, slowest, slowest, mergeTime)
		}
		ref, trail := stepwise(pulls, idle, total, mergeTime)
		if math.Abs(float64(end-ref)) > 1e-9 {
			t.Fatalf("trial %d: merge ends at %v, the step-by-step cursor at %v", trial, end, ref)
		}
		for i := 1; i < len(trail); i++ {
			if trail[i] < trail[i-1] {
				t.Fatalf("trial %d: the cursor went back from %v to %v", trial, trail[i-1], trail[i])
			}
		}

		if len(pulls) == 0 {
			continue
		}
		later := append([]pull(nil), pulls...)
		later[rng.Intn(len(later))].arrive += simclock.Time(rng.Float64() * 5)
		if moved := overlapped(later, idle, total, mergeTime); moved < end {
			t.Fatalf("trial %d: a batch arriving later moved the end from %v back to %v", trial, end, moved)
		}
		var kept []pull
		var last simclock.Time
		for _, p := range pulls {
			if p.arrive > last {
				last = p.arrive
				kept = append(kept, p)
			}
		}
		if got := overlapped(kept, idle, total, mergeTime); got != end {
			t.Fatalf("trial %d: %v over the arrivals take keeps, %v over all of them", trial, got, end)
		}
	}
}

// TestTimelineTakeLogsOnlyLaterArrivals: take prices the merge's running
// charges at the II node and logs an entry only when the batch arrived later
// than every batch before it.
func TestTimelineTakeLogsOnlyLaterArrivals(t *testing.T) {
	node := remote.NewServer(remote.Config{ID: "II", Hardware: remote.HardwareProfile{CPUOpsPerMS: 1000, FixedOverheadMS: 0.5}})
	var work exec.Resources
	tl := timeline{node: node, work: &work}
	for _, arrive := range []simclock.Time{3, 1, 3, 7, 7, 5, 9} {
		tl.take(arrive)
		work.CPUOps += 1000
	}
	want := []pull{{3, 0.5}, {7, 3.5}, {9, 6.5}}
	if len(tl.pulls) != len(want) {
		t.Fatalf("logged %v, want %v", tl.pulls, want)
	}
	for i, p := range tl.pulls {
		if p != want[i] {
			t.Fatalf("logged %v, want %v", tl.pulls, want)
		}
	}
}
