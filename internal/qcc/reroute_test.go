package qcc_test

import (
	"testing"

	"repro/internal/qcc"
	"repro/internal/scenario"
)

func buildReroute(t *testing.T, enabled bool) (*scenario.Scenario, *qcc.QCC) {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Reroute:        qcc.RerouteConfig{Enabled: enabled},
		DisableDaemons: true,
	}, sc.II)
	return sc, q
}

func TestRerouterSwitchesWhenTargetDegradesAfterCompile(t *testing.T) {
	sc, q := buildReroute(t, true)
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
	switched, checked := q.Rerouter.Switched()
	if switched == 0 || checked == 0 {
		t.Fatalf("stats: switched=%d checked=%d", switched, checked)
	}
}

func TestRerouterSwitchesOffFencedServer(t *testing.T) {
	sc, q := buildReroute(t, true)
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
		t.Fatalf("rerouter should save the stale plan: %v", err)
	}
	if res.ExecutedServers["QF1"] == compiled {
		t.Fatal("fragment ran on a down server")
	}
}

func TestRerouterKeepsChoiceWhenStillBest(t *testing.T) {
	sc, q := buildReroute(t, true)
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
	switched, checked := q.Rerouter.Switched()
	if switched != 0 || checked == 0 {
		t.Fatalf("stats: switched=%d checked=%d", switched, checked)
	}
}

func TestRerouterDisabledIsInert(t *testing.T) {
	sc, q := buildReroute(t, false)
	if q.Rerouter != nil {
		t.Fatal("rerouter should not exist when disabled")
	}
	if _, err := sc.II.Query(scanQuery); err != nil {
		t.Fatal(err)
	}
}

func TestRerouterHysteresis(t *testing.T) {
	// A modest cost difference below the improvement threshold must NOT
	// cause a switch (flapping protection).
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Reroute:        qcc.RerouteConfig{Enabled: true, Improvement: 0.99},
		DisableDaemons: true,
	}, sc.II)
	gp, err := sc.II.Compile(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	compiled := gp.Fragments[0].ServerID
	sc.Servers[compiled].SetLoadLevel(0.3) // mild degradation
	res, err := sc.II.Execute(gp)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedServers["QF1"] != compiled {
		t.Fatal("mild degradation below threshold must not switch")
	}
	_ = q
}
