package router

import (
	"math"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/remote"
)

func choice(server string, totalMS float64) optimizer.FragmentChoice {
	return optimizer.FragmentChoice{
		ServerID: server,
		Plan:     &remote.Plan{ServerID: server, Est: remote.CostEstimate{TotalMS: totalMS}},
	}
}

func TestRepresentKeepsCheapestPerServer(t *testing.T) {
	opts := []optimizer.FragmentChoice{
		choice("S1", 30),
		choice("S2", 20),
		choice("S1", 10), // cheaper S1 plan listed later
		choice("S2", 40),
	}
	order, reps, minCost := represent(opts)
	if len(order) != 2 || order[0] != "S1" || order[1] != "S2" {
		t.Fatalf("order = %v, want [S1 S2] (first-seen)", order)
	}
	if reps["S1"].cost != 10 {
		t.Errorf("S1 representative cost = %v, want the cheapest plan (10)", reps["S1"].cost)
	}
	if reps["S2"].cost != 20 {
		t.Errorf("S2 representative cost = %v, want 20", reps["S2"].cost)
	}
	if minCost != 10 {
		t.Errorf("minCost = %v, want 10", minCost)
	}
}

func TestScoreBreakdown(t *testing.T) {
	r := New(Config{
		Weights: Weights{CPU: 0.3, Memory: 0.2, CacheLocality: 0.3, Latency: 0.2},
		Signals: Signals{
			FragmentFactor: func(serverID, sig string) float64 { return 2 }, // cpu = 0.5
			Reliability:    func(serverID string) float64 { return 1.25 },   // pressure base
			QueueDepth:     func() int { return 2 },                         // ×(1+0.25·2)
			CacheResidency: func(serverID string, ts []string) float64 { return 0.8 },
		},
	})
	b, ok := r.score("S1", "sig", []string{"orders"}, 40, 20)
	if !ok {
		t.Fatal("score returned !ok for a healthy server")
	}
	if b.CPU != 0.5 {
		t.Errorf("cpu sub-score = %v, want 0.5 (factor 2)", b.CPU)
	}
	wantMem := 1 / (1.25 * 1.5)
	if math.Abs(b.Memory-wantMem) > 1e-12 {
		t.Errorf("memory sub-score = %v, want %v", b.Memory, wantMem)
	}
	if b.Cache != 0.8 {
		t.Errorf("cache sub-score = %v, want 0.8", b.Cache)
	}
	if b.Latency != 0.5 {
		t.Errorf("latency sub-score = %v, want 0.5 (min 20 / cost 40)", b.Latency)
	}
	want := 0.3*0.5 + 0.2*wantMem + 0.3*0.8 + 0.2*0.5
	if math.Abs(b.Total-want) > 1e-12 {
		t.Errorf("total = %v, want %v", b.Total, want)
	}
}

func TestScoreSkipsFencedAndInfinite(t *testing.T) {
	r := New(Config{Signals: Signals{
		IsFenced: func(serverID string) bool { return serverID == "S2" },
	}})
	if _, ok := r.score("S2", "sig", nil, 10, 10); ok {
		t.Error("fenced server scored ok")
	}
	if _, ok := r.score("S1", "sig", nil, math.Inf(1), 10); ok {
		t.Error("infinite-cost candidate scored ok")
	}
	if _, ok := r.score("S1", "sig", nil, 10, 10); !ok {
		t.Error("healthy server rejected")
	}
}

func TestNewDefaults(t *testing.T) {
	r := New(Config{})
	if r.Weights() != DefaultWeights {
		t.Errorf("zero weights resolved to %+v, want DefaultWeights %+v", r.Weights(), DefaultWeights)
	}
	if r.cfg.QueuePressureGain != 0.25 {
		t.Errorf("queue pressure gain = %v, want 0.25", r.cfg.QueuePressureGain)
	}
	// Explicit weights are kept as-is, including latency-only.
	r2 := New(Config{Weights: Weights{Latency: 1}})
	if r2.Weights() != (Weights{Latency: 1}) {
		t.Errorf("explicit weights altered: %+v", r2.Weights())
	}
}

func TestChooseGlobalGuards(t *testing.T) {
	r := New(Config{})
	if got := r.ChooseGlobal("q", nil); got != nil {
		t.Error("nil winner not passed through")
	}
	// A winner whose Options are absent (pre-replication plan shape) must be
	// returned pointer-identical.
	winner := &optimizer.GlobalPlan{Fragments: []optimizer.FragmentChoice{choice("S1", 10)}}
	if got := r.ChooseGlobal("q", winner); got != winner {
		t.Error("winner without options was not returned untouched")
	}
}

func TestRerouteFragmentSingleCandidateNoop(t *testing.T) {
	r := New(Config{})
	c := choice("S1", 10)
	c.Spec = &optimizer.FragmentSpec{ID: "f1", Candidates: []string{"S1"}}
	if got := r.RerouteFragment(c); got != nil {
		t.Error("single-candidate fragment was rerouted")
	}
	if _, checked := r.Rerouted(); checked != 0 {
		t.Error("single-candidate fragment counted as a rescore check")
	}
}

func TestDecisionLogRing(t *testing.T) {
	log := NewDecisionLog(3)
	for i := 0; i < 5; i++ {
		log.Record(Decision{Query: string(rune('a' + i))})
	}
	if log.Total() != 5 {
		t.Errorf("Total = %d, want 5", log.Total())
	}
	last := log.Last(10)
	if len(last) != 3 {
		t.Fatalf("Last(10) returned %d decisions, want the 3 retained", len(last))
	}
	if last[0].Query != "c" || last[2].Query != "e" {
		t.Errorf("Last order = [%s %s %s], want oldest-first [c d e]",
			last[0].Query, last[1].Query, last[2].Query)
	}
	if got := log.Last(2); len(got) != 2 || got[0].Query != "d" {
		t.Errorf("Last(2) = %v, want [d e]", got)
	}
	var nilLog *DecisionLog
	nilLog.Record(Decision{}) // must not panic
	if nilLog.Last(1) != nil || nilLog.Total() != 0 {
		t.Error("nil log is not inert")
	}
}
