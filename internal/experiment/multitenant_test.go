package experiment

import (
	"runtime"
	"testing"
)

// TestMultitenantStudy runs the full study once and checks its invariants and
// its acceptance gates:
//
//   - every scenario accounts for all its arrivals (none lost), and sheds
//     appear only where a quota exists;
//   - equal weights under 2x overload share fairly: Jain's index >= 0.9;
//   - 3:1 weights under 2x overload serve cost in a ratio in [2.3, 3.7], and
//     every arrival completes;
//   - a heavy batch tenant flooding the controller degrades a light
//     interactive tenant's p95 by at most 1.5x.
//
// The replay runs on the virtual clock alone, so these numbers are the seed's
// (TestProbesGolden pins every digit of them).
func TestMultitenantStudy(t *testing.T) {
	res, err := MultitenantStudy(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if sc.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", sc.Scenario)
		}
		if sc.Lost != 0 {
			t.Fatalf("%s: %d queries lost", sc.Scenario, sc.Lost)
		}
		if sc.Completed+sc.Shed != sc.Arrivals {
			t.Fatalf("%s: completed %d + shed %d != arrivals %d",
				sc.Scenario, sc.Completed, sc.Shed, sc.Arrivals)
		}
	}
	equal, weighted, iso := res.Scenarios[0], res.Scenarios[1], res.Scenarios[2]
	if equal.JainIndex < 0.9 {
		t.Errorf("equal-weights Jain index %.3f < 0.9", equal.JainIndex)
	}
	if weighted.ServedRatio < 2.3 || weighted.ServedRatio > 3.7 {
		t.Errorf("weighted-3to1 served-cost ratio %.2f outside [2.3, 3.7]", weighted.ServedRatio)
	}
	if weighted.Completed != weighted.Arrivals {
		t.Errorf("weighted-3to1 completed %d of %d arrivals with no quota", weighted.Completed, weighted.Arrivals)
	}
	if iso.Shed == 0 {
		t.Errorf("isolation heavy tenant shed nothing despite its queue quota")
	}
	if iso.IsolationP95Ratio <= 0 || iso.IsolationP95Ratio > 1.5 {
		t.Errorf("light tenant p95 degraded %.2fx (%.1fms -> %.1fms), outside (0, 1.5]",
			iso.IsolationP95Ratio, iso.BaselineP95MS, iso.ContendedP95MS)
	}
}

// TestMultitenantReplayIgnoresTheScheduler replays the study at GOMAXPROCS 1
// and at the machine's CPU count and requires the identical rendering: nothing
// but the seed may move a digit (TestProbesGolden holds the digits).
func TestMultitenantReplayIgnoresTheScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		res, err := MultitenantStudy(Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		got := FormatMultitenantStudy(res)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s\nat 1:\n%s", procs, got, want)
		}
	}
}
