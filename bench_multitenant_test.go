// Multi-tenant overload benchmarks. BenchmarkMultitenantOverload replays the
// seeded traffic-simulator scenarios (equal weights, 3:1 weights, isolation)
// through the weighted-fair admission controller; the acceptance gates are
// asserted by the env-gated TestMultitenantSmoke (MULTITENANT_CHECK=1), which
// stays gated until the replay is deterministic.
package fedqcc

import (
	"os"
	"testing"
)

// mtScenarioByName indexes a study result's scenarios.
func mtScenarioByName(tb testing.TB, res MultitenantStudyResult, name string) MultitenantOutcome {
	tb.Helper()
	for _, sc := range res.Scenarios {
		if sc.Scenario == name {
			return sc
		}
	}
	tb.Fatalf("study has no scenario %q", name)
	return MultitenantOutcome{}
}

// BenchmarkMultitenantOverload times one full multi-tenant study run (three
// DES scenarios plus the isolation baseline, ~8k simulated queries).
func BenchmarkMultitenantOverload(b *testing.B) {
	var res MultitenantStudyResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = RunMultitenantStudy(ExperimentOptions{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	equal := mtScenarioByName(b, res, "equal-weights")
	weighted := mtScenarioByName(b, res, "weighted-3to1")
	iso := mtScenarioByName(b, res, "isolation")
	b.ReportMetric(equal.JainIndex, "jain_equal")
	b.ReportMetric(weighted.ServedRatio, "served_ratio_3to1")
	b.ReportMetric(iso.IsolationP95Ratio, "isolation_p95_x")
}

// TestMultitenantSmoke asserts the multi-tenant acceptance gates:
//
//	(i)  equal weights under 2x overload share fairly: Jain's index >= 0.9;
//	(ii) 3:1 weights under 2x overload serve cost in ratio [2.3, 3.7] with
//	     no query lost (every arrival completes or sheds with a typed error);
//	(iii) a light interactive tenant's p95 is not degraded more than 1.5x by
//	     a heavy batch tenant flooding the same controller.
//
// Runs when CI (or a developer) opts in via MULTITENANT_CHECK=1.
func TestMultitenantSmoke(t *testing.T) {
	if os.Getenv("MULTITENANT_CHECK") == "" {
		t.Skip("set MULTITENANT_CHECK=1 to run the multi-tenant acceptance gates")
	}
	res, err := RunMultitenantStudy(ExperimentOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range res.Scenarios {
		if sc.Lost != 0 {
			t.Errorf("%s: %d queries lost (arrivals %d, completed %d, shed %d)",
				sc.Scenario, sc.Lost, sc.Arrivals, sc.Completed, sc.Shed)
		}
	}
	equal := mtScenarioByName(t, res, "equal-weights")
	if equal.JainIndex < 0.9 {
		t.Errorf("equal-weights Jain index %.3f < 0.9", equal.JainIndex)
	}
	weighted := mtScenarioByName(t, res, "weighted-3to1")
	if weighted.ServedRatio < 2.3 || weighted.ServedRatio > 3.7 {
		t.Errorf("weighted-3to1 served-cost ratio %.2f outside [2.3, 3.7]", weighted.ServedRatio)
	}
	if weighted.Completed != weighted.Arrivals {
		t.Errorf("weighted-3to1 completed %d of %d arrivals", weighted.Completed, weighted.Arrivals)
	}
	iso := mtScenarioByName(t, res, "isolation")
	if iso.IsolationP95Ratio <= 0 {
		t.Fatalf("isolation ratio not computed (baseline p95 %.1fms)", iso.BaselineP95MS)
	}
	if iso.IsolationP95Ratio > 1.5 {
		t.Errorf("light tenant p95 degraded %.2fx (%.1fms -> %.1fms), over the 1.5x budget",
			iso.IsolationP95Ratio, iso.BaselineP95MS, iso.ContendedP95MS)
	}
	t.Logf("jain=%.3f ratio=%.2f isolation=%.2fx", equal.JainIndex, weighted.ServedRatio, iso.IsolationP95Ratio)
}
