// Multi-tenant overload benchmark. BenchmarkMultitenantOverload replays the
// seeded traffic-simulator scenarios (equal weights, 3:1 weights, isolation)
// through the weighted-fair admission controller; the acceptance gates are
// asserted by internal/experiment's TestMultitenantStudy.
package fedqcc

import "testing"

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
