package qcc_test

import (
	"testing"

	"repro/internal/qcc"
	"repro/internal/router"
	"repro/internal/scenario"
)

// The route policy itself is unit-tested in internal/router. These tests
// drive the one router Attach installs through a real federation: the menu
// is the optimizer's, the signals and the calibrated costs are QCC's.

func buildRouted(t *testing.T, opts scenario.Options, p router.Policy) (*scenario.Scenario, *qcc.QCC) {
	t.Helper()
	opts.Scale = 100
	sc, err := scenario.BuildThreeServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{Clock: sc.Clock, MW: sc.MW, Routing: p, DisableDaemons: true}, sc.II)
	return sc, q
}

// buildLB attaches a rotation policy over equal links: the three replicas
// are near-equivalent, so rotation sets are non-trivial.
func buildLB(t *testing.T, p router.Policy) (*scenario.Scenario, *qcc.QCC) {
	return buildRouted(t, scenario.Options{Latencies: map[string]float64{"S1": 10, "S2": 10, "S3": 10}}, p)
}

func serversUsed(t *testing.T, sc *scenario.Scenario, query string, n int) map[string]int {
	t.Helper()
	used := map[string]int{}
	for i := 0; i < n; i++ {
		res, err := sc.II.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Plan.Fragments {
			used[f.ServerID]++
		}
	}
	return used
}

func TestLBOffAlwaysWinner(t *testing.T) {
	sc, q := buildLB(t, router.Policy{Mode: router.Off, Closeness: 3.0})
	if used := serversUsed(t, sc, scanQuery, 6); len(used) != 1 {
		t.Fatalf("routing off must pin one server: %v", used)
	}
	if st := q.Router.Stats(); st != (router.Stats{}) {
		t.Fatalf("routing off counted %+v", st)
	}
}

func TestLBGlobalRotatesAcrossServers(t *testing.T) {
	// A generous closeness band groups all three replicas.
	sc, q := buildLB(t, router.Policy{Mode: router.Global, Closeness: 3.0})
	used := serversUsed(t, sc, scanQuery, 9)
	if len(used) < 2 {
		t.Fatalf("global rotation must spread load: %v", used)
	}
	if q.Router.Stats().Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
	// Distribution is balanced within a factor of the rotation length.
	for id, n := range used {
		if n == 0 || n > 6 {
			t.Fatalf("unbalanced rotation at %s: %v", id, used)
		}
	}
}

func TestLBGlobalTightClosenessPinsCheapest(t *testing.T) {
	// With near-zero closeness only the cheapest plan qualifies.
	sc, _ := buildLB(t, router.Policy{Mode: router.Global, Closeness: 0.0001})
	if used := serversUsed(t, sc, scanQuery, 6); len(used) != 1 {
		t.Fatalf("tight closeness must pin the winner: %v", used)
	}
}

func TestLBFragmentRequiresIdenticalPlans(t *testing.T) {
	sc, q := buildLB(t, router.Policy{Mode: router.Fragment, Closeness: 3.0})
	// Replicas are identical (same seed), so the same physical plan exists
	// on all three and fragment-level rotation can spread.
	if used := serversUsed(t, sc, scanQuery, 9); len(used) < 2 {
		t.Fatalf("fragment rotation must spread across identical plans: %v", used)
	}
	if q.Router.Stats().Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
}

// TestLBSetModeResets: a policy change installs a fresh router; nothing of
// the old rotation survives it.
func TestLBSetModeResets(t *testing.T) {
	sc, q := buildLB(t, router.Policy{Mode: router.Global, Closeness: 3.0})
	serversUsed(t, sc, scanQuery, 3)
	q.SetRouting(sc.II, router.Policy{Mode: router.Off})
	if used := serversUsed(t, sc, scanQuery, 4); len(used) != 1 {
		t.Fatalf("after turning routing off: %v", used)
	}
	if st := q.Router.Stats(); st != (router.Stats{}) {
		t.Fatalf("the new policy inherited %+v", st)
	}
}

func TestRerouterSwitchesWhenTargetDegradesAfterCompile(t *testing.T) {
	sc, q := buildRouted(t, scenario.Options{}, router.Policy{Rescore: true})
	// Compile the plan while everything is calm.
	gp, err := sc.II.Compile(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	compiled := gp.Fragments[0].ServerID
	// AFTER compilation, the chosen server's load spikes and QCC has
	// already learned about it (e.g. from other queries' observations).
	sc.Servers[compiled].SetLoadLevel(1)
	stmt := gp.Fragments[0].Spec.Stmt
	for i := 0; i < 3; i++ {
		if err := runOn(sc, compiled, stmt); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	// Executing the STALE compiled plan now switches at dispatch time.
	res, err := sc.II.Execute(gp)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedServers["QF1"] == compiled {
		t.Fatalf("fragment should have moved off loaded %s", compiled)
	}
	if st := q.Router.Stats(); st.RescoreSwitches == 0 || st.RescoreChecks == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRerouterSwitchesOffFencedServer(t *testing.T) {
	sc, q := buildRouted(t, scenario.Options{}, router.Policy{Rescore: true})
	gp, err := sc.II.Compile(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	compiled := gp.Fragments[0].ServerID
	// The server crashes after compilation; a probe fences it.
	sc.Servers[compiled].SetDown(true)
	q.ProbeNow()
	res, err := sc.II.Execute(gp)
	if err != nil {
		t.Fatalf("the rescore should save the stale plan: %v", err)
	}
	if res.ExecutedServers["QF1"] == compiled {
		t.Fatal("fragment ran on a down server")
	}
}

func TestRerouterKeepsChoiceWhenStillBest(t *testing.T) {
	sc, q := buildRouted(t, scenario.Options{}, router.Policy{Rescore: true})
	gp, err := sc.II.Compile(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	compiled := gp.Fragments[0].ServerID
	res, err := sc.II.Execute(gp)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedServers["QF1"] != compiled {
		t.Fatal("calm system must keep the compiled choice")
	}
	if st := q.Router.Stats(); st.RescoreSwitches != 0 || st.RescoreChecks == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRerouterDisabledIsInert(t *testing.T) {
	sc, q := buildRouted(t, scenario.Options{}, router.Policy{})
	if _, err := sc.II.Query(scanQuery); err != nil {
		t.Fatal(err)
	}
	if st := q.Router.Stats(); st != (router.Stats{}) {
		t.Fatalf("a disabled rescore counted %+v", st)
	}
}

func TestRerouterHysteresis(t *testing.T) {
	// A calibrated cost difference inside the 20% closeness band must NOT
	// cause a switch (flapping protection): the compiled target learns a mild
	// slowdown, the others stay as estimated.
	sc, q := buildRouted(t, scenario.Options{Latencies: map[string]float64{"S1": 10, "S2": 10, "S3": 10}, Uniform: true}, router.Policy{Rescore: true})
	gp, err := sc.II.Compile(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	compiled := gp.Fragments[0].ServerID
	sc.Servers[compiled].SetLoadLevel(0.1) // mild degradation
	for i := 0; i < 3; i++ {
		if err := runOn(sc, compiled, gp.Fragments[0].Spec.Stmt); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	if f := q.Calib.ServerFactor(compiled); f <= 1 || f >= 1+router.DefaultCloseness {
		t.Fatalf("setup: %s's factor %v is not a mild slowdown inside the band", compiled, f)
	}
	res, err := sc.II.Execute(gp)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedServers["QF1"] != compiled {
		t.Fatal("mild degradation inside the band must not switch")
	}
	if st := q.Router.Stats(); st.RescoreChecks == 0 || st.RescoreSwitches != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
