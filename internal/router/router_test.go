package router

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/integrator"
	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/ring"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
)

func choice(server string, totalMS float64) optimizer.FragmentChoice {
	return optimizer.FragmentChoice{
		ServerID: server,
		Plan:     &remote.Plan{ServerID: server, Signature: "scan", Est: remote.CostEstimate{TotalMS: totalMS}},
	}
}

// sigChoice is choice with an explicit physical-plan signature.
func sigChoice(server, sig string, totalMS float64) optimizer.FragmentChoice {
	c := choice(server, totalMS)
	c.Plan.Signature = sig
	return c
}

// testRouter builds a router over a bare optimizer (no II node: the merge
// of a single-fragment plan is free, so a plan's total is its fragment's).
func testRouter(p Policy) *Router {
	return New(Config{Policy: p, Optimizer: &optimizer.Optimizer{}, Clock: simclock.New()})
}

// rankOver ranks a one-fragment statement whose candidates are opts (in
// candidate order) the way compilation does, through the optimizer's own
// EnumerateFromOptions: the first plan is the winner.
func rankOver(t *testing.T, opts ...optimizer.FragmentChoice) []*optimizer.GlobalPlan {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.FragmentSpec{ID: "QF1", Sig: "sig", Stmt: stmt}
	raw := optimizer.FragmentOptions{Spec: spec}
	for _, o := range opts {
		raw.Options = append(raw.Options, optimizer.SourceOption{ServerID: o.ServerID, Plan: o.Plan, RawEst: o.Plan.Est, CostKnown: true})
	}
	decomp := &optimizer.Decomposition{Stmt: stmt, Fragments: []*optimizer.FragmentSpec{spec}, SingleFragment: true}
	ranked, err := (&optimizer.Optimizer{}).EnumerateFromOptions(stmt, decomp, []optimizer.FragmentOptions{raw}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// servers drives n compilations of one statement, whose rotation state is
// turn, through the router and returns the server sequence.
func servers(r *Router, ranked []*optimizer.GlobalPlan, turn *integrator.Turn, n int) string {
	var seq []string
	for i := 0; i < n; i++ {
		seq = append(seq, r.ChooseGlobal(context.Background(), ranked, turn).Fragments[0].ServerID)
	}
	return strings.Join(seq, " ")
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Off: "off", Fragment: "fragment", Global: "global", Weighted: "weighted", 4: "mode(4)", -1: "mode(-1)"} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestRepresentKeepsCheapestPerServer(t *testing.T) {
	opts := []optimizer.FragmentChoice{
		choice("S1", 30),
		choice("S2", 20),
		choice("S1", 10), // cheaper S1 plan listed later
		choice("S2", 40),
	}
	reps, minCost := testRouter(Policy{}).represent("sig", opts, false)
	if len(reps) != 2 || reps[0].choice.ServerID != "S1" || reps[1].choice.ServerID != "S2" {
		t.Fatalf("representatives = %+v, want S1 then S2 (first-seen)", reps)
	}
	if got := reps[0].choice.Plan.Est.TotalMS; got != 10 {
		t.Errorf("S1 representative cost = %v, want the cheapest plan (10)", got)
	}
	if got := reps[1].choice.Plan.Est.TotalMS; got != 20 {
		t.Errorf("S2 representative cost = %v, want 20", got)
	}
	if minCost != 10 {
		t.Errorf("minCost = %v, want 10", minCost)
	}
}

func TestScoreBreakdown(t *testing.T) {
	r := New(Config{
		Policy: Policy{Mode: Weighted},
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

// TestLatencyOnlyRankPicksTheCostWinner: under the paper modes' latency-only
// weights, whatever the load, pressure and cache signals say, the best-ranked
// server of any menu is the first of its cheapest unfenced, finite-cost
// representatives: the cost winner.
func TestLatencyOnlyRankPicksTheCostWinner(t *testing.T) {
	r := New(Config{Signals: Signals{
		FragmentFactor: func(id, sig string) float64 { return float64(id[1] - '0') },
		Reliability:    func(id string) float64 { return 6 - float64(id[1]-'0') },
		CacheResidency: func(id string, _ []string) float64 { return float64(id[1]-'0') / 5 },
		IsFenced:       func(id string) bool { return id == "S3" },
	}})
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 1000; trial++ {
		var opts []optimizer.FragmentChoice
		for n := 1 + rng.IntN(8); len(opts) < n; {
			cost := float64(1 + rng.IntN(50))
			if rng.IntN(10) == 0 {
				cost = math.Inf(1)
			}
			opts = append(opts, choice(fmt.Sprintf("S%d", 1+rng.IntN(5)), cost))
		}
		reps, minCost := r.represent("sig", opts, false)
		want, wantCost := "", math.Inf(1)
		for _, c := range reps {
			if id, cost := c.choice.ServerID, c.choice.Plan.Est.TotalMS; id != "S3" && cost < wantCost {
				want, wantCost = id, cost
			}
		}
		scored, best := r.rank("sig", reps, minCost)
		got := ""
		if best >= 0 {
			got = scored[best].choice.ServerID
		}
		if got != want {
			t.Fatalf("trial %d: menu %v ranked %q first, want the cost winner %q", trial, opts, got, want)
		}
	}
}

// TestNewDefaults: the paper's modes rank by calibrated cost alone;
// Weighted scores with the Milvus weights. Every mode's band defaults to the
// paper's 20%.
func TestNewDefaults(t *testing.T) {
	for _, tc := range []struct {
		policy      Policy
		wantWeights weights
	}{
		{Policy{}, latencyOnly},
		{Policy{Mode: Global}, latencyOnly},
		{Policy{Mode: Fragment}, latencyOnly},
		{Policy{Mode: Weighted}, milvusWeights},
	} {
		r := New(Config{Policy: tc.policy})
		if r.weights != tc.wantWeights {
			t.Errorf("%+v resolved to weights %+v, want %+v", tc.policy, r.weights, tc.wantWeights)
		}
		if r.cfg.Closeness != DefaultCloseness {
			t.Errorf("%+v: closeness %v, want the default %v", tc.policy, r.cfg.Closeness, DefaultCloseness)
		}
	}
}

// TestChooseGlobalGuards: an empty ranking comes back nil; a winner without
// a menu, any winner under Off and a rotation mode's winner without a turn
// (explain mode) come back pointer-identical.
func TestChooseGlobalGuards(t *testing.T) {
	noMenu := &optimizer.GlobalPlan{Fragments: []optimizer.FragmentChoice{choice("S1", 10)}}
	for _, mode := range []Mode{Off, Fragment, Global, Weighted} {
		r := testRouter(Policy{Mode: mode})
		if got := r.ChooseGlobal(context.Background(), nil, &integrator.Turn{}); got != nil {
			t.Errorf("%s: empty ranking did not come back nil", mode)
		}
		if got := r.ChooseGlobal(context.Background(), []*optimizer.GlobalPlan{noMenu}, &integrator.Turn{}); got != noMenu {
			t.Errorf("%s: winner without options was not returned untouched", mode)
		}
	}
	tied := rankOver(t, choice("S1", 10), choice("S2", 10), choice("S3", 10))
	for _, tc := range []struct {
		mode Mode
		turn *integrator.Turn
	}{{Off, &integrator.Turn{}}, {Fragment, nil}, {Global, nil}} {
		r := testRouter(Policy{Mode: tc.mode, Closeness: 3})
		for i := 0; i < 4; i++ {
			if got := r.ChooseGlobal(context.Background(), tied, tc.turn); got != tied[0] {
				t.Fatalf("%s with turn %v did not return the winner pointer-identical", tc.mode, tc.turn)
			}
		}
		if r.Stats() != (Stats{}) {
			t.Errorf("%s with turn %v counted %+v", tc.mode, tc.turn, r.Stats())
		}
	}
}

// TestRotationSets covers what the rotation modes build from a menu and in
// which order they walk it.
func TestRotationSets(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    Policy
		menu      []optimizer.FragmentChoice
		want      string
		rotations int64 // queries moved off the winner
	}{
		{"global rotates across servers, cheapest first",
			Policy{Mode: Global, Closeness: 3}, []optimizer.FragmentChoice{choice("S1", 12), choice("S2", 10), choice("S3", 11)},
			"S2 S3 S1 S2 S3 S1", 4},
		{"equal costs rotate in menu order",
			Policy{Mode: Global}, []optimizer.FragmentChoice{choice("S3", 10), choice("S1", 10), choice("S2", 10)},
			"S3 S1 S2 S3 S1 S2", 4},
		{"tight closeness pins the cheapest",
			Policy{Mode: Global, Closeness: 0.0001}, []optimizer.FragmentChoice{choice("S1", 12), choice("S2", 10), choice("S3", 11)},
			"S2 S2 S2 S2 S2 S2", 0},
		{"default band is the paper's 20%",
			Policy{Mode: Global}, []optimizer.FragmentChoice{choice("S1", 10), choice("S2", 11.9), choice("S3", 12.1)},
			"S1 S2 S1 S2 S1 S2", 3},
		{"global keeps the cheapest plan per server set",
			Policy{Mode: Global, Closeness: 3}, []optimizer.FragmentChoice{sigChoice("S1", "scan", 12), sigChoice("S1", "index", 10), choice("S2", 11)},
			"S1 S2 S1 S2 S1 S2", 3},
		{"fragment scope requires the winner's physical plan",
			Policy{Mode: Fragment, Closeness: 3}, []optimizer.FragmentChoice{sigChoice("S1", "index", 10), sigChoice("S2", "scan", 10.5), sigChoice("S3", "index", 11)},
			"S1 S3 S1 S3 S1 S3", 3},
		{"fragment scope without a twin keeps the winner",
			Policy{Mode: Fragment, Closeness: 3}, []optimizer.FragmentChoice{sigChoice("S1", "index", 10), sigChoice("S2", "scan", 10.5)},
			"S1 S1 S1 S1 S1 S1", 0},
		{"a set holds at most four",
			Policy{Mode: Global, Closeness: 3}, []optimizer.FragmentChoice{choice("S1", 10), choice("S2", 11), choice("S3", 12), choice("S4", 13), choice("S5", 14)},
			"S1 S2 S3 S4 S1 S2", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRouter(tc.policy)
			if got := servers(r, rankOver(t, tc.menu...), &integrator.Turn{}, 6); got != tc.want {
				t.Errorf("server sequence = %s, want %s", got, tc.want)
			}
			if got := r.Stats().Rotations; got != tc.rotations {
				t.Errorf("rotations = %d, want %d", got, tc.rotations)
			}
		})
	}
}

// TestFreshRotationSetStartsAtTheWinner: a rotation set is read off the
// optimizer's ranking, so the first pick of a fresh turn is the winner itself
// and moves nothing, even when a tie among many plans is ranked in an order
// other than the candidates' (13 plans are past the insertion-sort cutoff of
// the ranking's sort). A band too tight for the other cost level keeps the
// winner in the rotation every round.
func TestFreshRotationSetStartsAtTheWinner(t *testing.T) {
	var opts []optimizer.FragmentChoice
	for i := 0; i < 13; i++ {
		opts = append(opts, choice(fmt.Sprintf("S%02d", i), float64(10+i%2)))
	}
	for _, mode := range []Mode{Global, Fragment} {
		for _, closeness := range []float64{3, 0.0001} {
			t.Run(fmt.Sprintf("%s/%g", mode, closeness), func(t *testing.T) {
				ranked := rankOver(t, opts...)
				winner := ranked[0]
				r := testRouter(Policy{Mode: mode, Closeness: closeness})
				turn := &integrator.Turn{}
				if got := r.ChooseGlobal(context.Background(), ranked, turn); got != winner {
					t.Fatalf("first pick %s, want the winner %s pointer-identical", got.RouteKey(), winner.RouteKey())
				}
				if got := r.Stats().Rotations; got != 0 {
					t.Fatalf("rotations after the first pick = %d, want 0", got)
				}
				if closeness > 1 {
					return
				}
				set := len(turn.Plans)
				if set != maxAlternatives || turn.Plans[0] != winner {
					t.Fatalf("turn holds %d plans, first %s: want %d from the winner", set, turn.Plans[0].RouteKey(), maxAlternatives)
				}
				for i := 1; i < 3*set; i++ {
					got := r.ChooseGlobal(context.Background(), ranked, turn)
					if got.TotalEstMS != winner.TotalEstMS {
						t.Fatalf("pick %d costs %v, outside the band of the winner's %v", i, got.TotalEstMS, winner.TotalEstMS)
					}
					if (i%set == 0) != (got == winner) {
						t.Fatalf("pick %d of a %d-plan set is %s, winner %s", i, set, got.RouteKey(), winner.RouteKey())
					}
				}
			})
		}
	}
}

// TestRotationDropsMembersOffTheMenu: a turn's set is only as good as the
// ranking it came from. When the next ranking no longer offers a member's
// server (the retry loop excluded it, a probe fenced it), the set is
// re-derived before anything is picked from it, with no clock in between;
// when the server returns, the next ranking brings it back. The winner stays
// S1 throughout, so the turn keeps its position.
func TestRotationDropsMembersOffTheMenu(t *testing.T) {
	r := testRouter(Policy{Mode: Global, Closeness: 3})
	turn := &integrator.Turn{}
	all := rankOver(t, choice("S1", 10), choice("S2", 11), choice("S3", 12))
	if got := servers(r, all, turn, 2); got != "S1 S2" {
		t.Fatalf("warm-up sequence = %s", got)
	}
	withoutS3 := rankOver(t, choice("S1", 10), choice("S2", 11))
	if got := servers(r, withoutS3, turn, 4); got != "S1 S2 S1 S2" {
		t.Errorf("with S3 off the menu the sequence = %s, want S1 S2 S1 S2", got)
	}
	if got := servers(r, all, turn, 3); got != "S1 S2 S3" {
		t.Errorf("after S3 returned the sequence = %s, want S1 S2 S3", got)
	}
}

// TestTurnFollowsTheRanking: a turn has no age and no clock. It continues
// however long its statement was away, keeps its position when its set
// changes under the same winner, and restarts at a new winner.
func TestTurnFollowsTheRanking(t *testing.T) {
	three := rankOver(t, choice("S1", 10), choice("S2", 11), choice("S3", 12))
	t.Run("a statement that recurs much later continues its rotation", func(t *testing.T) {
		r := testRouter(Policy{Mode: Global, Closeness: 3})
		turn := &integrator.Turn{}
		if got := servers(r, three, turn, 2); got != "S1 S2" {
			t.Fatalf("warm-up sequence = %s", got)
		}
		r.cfg.Clock.Advance(5000)
		if got := servers(r, three, turn, 2); got != "S3 S1" {
			t.Errorf("5 000 vms later the sequence = %s, want S3 S1", got)
		}
	})
	t.Run("a set that changes under the same winner keeps its position", func(t *testing.T) {
		r := testRouter(Policy{Mode: Global, Closeness: 0.5})
		turn := &integrator.Turn{}
		if got := servers(r, three, turn, 1); got != "S1" {
			t.Fatalf("warm-up sequence = %s", got)
		}
		// S3 stays on the menu but leaves the band.
		s3Dear := rankOver(t, choice("S1", 10), choice("S2", 11), choice("S3", 100))
		if got := servers(r, s3Dear, turn, 3); got != "S2 S1 S2" {
			t.Errorf("with S3 out of the band the sequence = %s, want S2 S1 S2", got)
		}
	})
	t.Run("a new winner restarts at it", func(t *testing.T) {
		r := testRouter(Policy{Mode: Global, Closeness: 3})
		turn := &integrator.Turn{}
		two := rankOver(t, choice("S1", 10), choice("S2", 11))
		if got := servers(r, two, turn, 1); got != "S1" {
			t.Fatalf("warm-up sequence = %s", got)
		}
		s3First := rankOver(t, choice("S1", 10), choice("S2", 11), choice("S3", 5))
		if got := servers(r, s3First, turn, 3); got != "S3 S1 S2" {
			t.Errorf("with S3 the new winner the sequence = %s, want S3 S1 S2", got)
		}
	})
}

// nowCosts is a calibrator that prices each server at a fixed current cost
// (+Inf where a server is banned), whatever the menu was compiled at.
type nowCosts map[string]float64

func (c nowCosts) CalibrateFragment(key metawrapper.FragmentKey, est remote.CostEstimate, _ bool) remote.CostEstimate {
	if cost, ok := c[key.ServerID]; ok {
		est.TotalMS = cost
	}
	return est
}

// menuRouter builds a router whose meta-wrapper prices S1 and S2 at s1 and s2
// now, with fenced fenced, and a fragment compiled for S1 from the menu
// {S1, S2}, both costing 10 at compile time.
func menuRouter(t *testing.T, p Policy, s1, s2 float64, fenced string) (*Router, optimizer.FragmentChoice, []optimizer.FragmentChoice) {
	t.Helper()
	mw := metawrapper.New()
	mw.SetCalibrator(nowCosts{"S1": s1, "S2": s2})
	r := New(Config{
		Policy:  p,
		Signals: Signals{IsFenced: func(id string) bool { return id == fenced }},
		MW:      mw,
		Clock:   simclock.New(),
	})
	winner := rankOver(t, choice("S1", 10), choice("S2", 10))[0]
	return r, winner.Fragments[0], winner.Options[0]
}

// TestDispatchRescore covers the one dispatch-time re-check: the fragment
// was compiled for S1 from the menu {S1, S2}; what S1 and S2 cost NOW, priced
// from that menu, decides. Every latency-only mode keeps a pick within
// (1+Closeness) of the cheapest (the default band is 20%).
func TestDispatchRescore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   Policy
		s1, s2   float64
		fenced   string
		want     string // "" = keep the compiled choice
		checked  int64
		switched int64
	}{
		{"disabled is inert", Policy{Mode: Global}, 10, 1, "", "", 0, 0},
		{"still best keeps the choice", Policy{Rescore: true}, 10, 12, "", "", 1, 0},
		{"a win inside the 20% band keeps the choice", Policy{Rescore: true}, 10, 8.5, "", "", 1, 0},
		{"a 20% win leaves the 20% band", Policy{Rescore: true}, 10, 8, "", "S2", 1, 1},
		{"a 30% win switches", Policy{Rescore: true}, 10, 7, "", "S2", 1, 1},
		{"rotation modes share the band", Policy{Mode: Fragment, Rescore: true}, 10, 8, "", "S2", 1, 1},
		{"a wider band keeps more", Policy{Mode: Global, Closeness: 1, Rescore: true}, 10, 5.5, "", "", 1, 0},
		{"a fenced target switches unconditionally", Policy{Rescore: true}, 10, 50, "S1", "S2", 1, 1},
		{"a banned target switches unconditionally", Policy{Rescore: true}, math.Inf(1), 50, "", "S2", 1, 1},
		{"nothing left to move to keeps the choice", Policy{Rescore: true}, 10, math.Inf(1), "S1", "", 1, 0},
		{"weighted switches on any better score", Policy{Mode: Weighted, Rescore: true}, 10, 9.5, "", "S2", 1, 1},
		{"weighted keeps an equal score", Policy{Mode: Weighted, Rescore: true}, 10, 10, "", "", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, compiled, menu := menuRouter(t, tc.policy, tc.s1, tc.s2, tc.fenced)
			got := ""
			if alt := r.RerouteFragment(context.Background(), compiled, menu); alt != nil {
				got = alt.ServerID
				if alt.Plan.Est.TotalMS != tc.s2 || alt.RawEst.TotalMS != 10 {
					t.Errorf("moved choice carries estimate %v (raw %v), want the current %v (raw 10)", alt.Plan.Est.TotalMS, alt.RawEst.TotalMS, tc.s2)
				}
			}
			if got != tc.want {
				t.Errorf("rerouted to %q, want %q", got, tc.want)
			}
			if st := r.Stats(); st.RescoreChecks != tc.checked || st.RescoreSwitches != tc.switched {
				t.Errorf("stats = %+v, want %d checks and %d switches", st, tc.checked, tc.switched)
			}
		})
	}
	t.Run("a masked target switches unconditionally", func(t *testing.T) {
		r, compiled, menu := menuRouter(t, Policy{Rescore: true}, 10, 50, "")
		r.cfg.MW.Mask("S1", true)
		if alt := r.RerouteFragment(context.Background(), compiled, menu); alt == nil || alt.ServerID != "S2" {
			t.Errorf("rerouted to %v, want S2", alt)
		}
	})
	t.Run("a server off the menu is never a target", func(t *testing.T) {
		// S3 (recovered since the compile, say) is now the cheapest, but the
		// compile did not offer it.
		r, compiled, menu := menuRouter(t, Policy{Rescore: true}, 10, 50, "S1")
		r.cfg.MW.SetCalibrator(nowCosts{"S1": 10, "S2": 50, "S3": 1})
		if alt := r.RerouteFragment(context.Background(), compiled, menu); alt == nil || alt.ServerID != "S2" {
			t.Errorf("rerouted to %v, want S2, the menu's one other server", alt)
		}
	})
}

// TestRerouteFragmentSingleCandidateNoop: a menu offering one server (two
// plans on it here) and an empty menu keep their pick and count no check.
func TestRerouteFragmentSingleCandidateNoop(t *testing.T) {
	r := New(Config{Policy: Policy{Mode: Weighted, Rescore: true}, MW: metawrapper.New()})
	one := rankOver(t, sigChoice("S1", "scan", 10), sigChoice("S1", "index", 5))[0]
	if got := r.RerouteFragment(context.Background(), one.Fragments[0], one.Options[0]); got != nil {
		t.Error("single-server fragment was rerouted")
	}
	if got := r.RerouteFragment(context.Background(), one.Fragments[0], nil); got != nil {
		t.Error("a fragment with an empty menu was rerouted")
	}
	if r.Stats().RescoreChecks != 0 {
		t.Error("single-server fragment counted as a rescore check")
	}
}

// FuzzDispatchRecheck drives the dispatch re-check over random menus of one
// to four servers, each with a random current cost, fenced (QCC prices it at
// +Inf, as it does), masked or banned (+Inf), under a random mode, band and
// compiled pick, and checks the decision against the rules stated directly:
// the fragment runs on the menu, on an available server whenever one is; a
// latency-only mode keeps a pick inside the band and otherwise moves to the
// cheapest; Weighted runs on the best score.
func FuzzDispatchRecheck(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint64(0x0020_0028), uint16(0), uint32(0))
	f.Add(uint8(3), uint8(2), uint8(50), uint8(1), uint64(0x0010_0020_0030), uint16(0o010), uint32(0x40_00_20))
	f.Add(uint8(4), uint8(3), uint8(0), uint8(3), uint64(0x0001_0002_0003_0004), uint16(0o4210), uint32(0x10_20_30_40))
	f.Add(uint8(4), uint8(1), uint8(10), uint8(2), uint64(0x003f_003f_0000_0011), uint16(0o0007), uint32(0))
	f.Fuzz(func(t *testing.T, servers, mode, closeness, pick uint8, costs uint64, flags uint16, factors uint32) {
		n := 1 + int(servers%4)
		type server struct {
			id                    string
			cost, factor          float64
			fenced, masked, unset bool
		}
		srv := make([]server, n)
		now := nowCosts{}
		mw := metawrapper.New()
		var opts []optimizer.FragmentChoice
		for i := range srv {
			s := &srv[i]
			s.id = fmt.Sprintf("S%d", i+1)
			s.cost = float64(1+(costs>>(16*i))%64) / 4
			s.factor = 1 + float64(uint8(factors>>(8*i)))/64
			bits := flags >> (3 * i)
			s.fenced, s.masked, s.unset = bits&1 != 0, bits&2 != 0, bits&4 != 0
			now[s.id] = s.cost
			if s.fenced || s.unset {
				now[s.id] = math.Inf(1)
			}
			mw.Mask(s.id, s.masked)
			opts = append(opts, choice(s.id, 10))
		}
		mw.SetCalibrator(now)
		byID := func(id string) *server { return &srv[id[1]-'1'] }
		available := func(s *server) bool { return !s.fenced && !s.masked && !s.unset }
		p := Policy{Mode: Mode(mode % 4), Closeness: float64(closeness) / 50, Rescore: true}
		r := New(Config{
			Policy: p,
			Signals: Signals{
				IsFenced:       func(id string) bool { return byID(id).fenced },
				FragmentFactor: func(id, _ string) float64 { return byID(id).factor },
			},
			MW:    mw,
			Clock: simclock.New(),
		})
		winner := rankOver(t, opts...)[0]
		menu := winner.Options[0]
		compiled := menu[int(pick)%len(menu)]

		minCost, anyUp := math.Inf(1), false
		for i := range srv {
			if available(&srv[i]) {
				anyUp, minCost = true, min(minCost, srv[i].cost)
			}
		}
		scoreOf := func(s *server) float64 {
			b, _ := r.score(s.id, "sig", nil, s.cost, minCost)
			return b.Total
		}

		alt := r.RerouteFragment(context.Background(), compiled, menu)
		ran := byID(compiled.ServerID)
		if alt != nil {
			ran = byID(alt.ServerID)
			if alt.ServerID == compiled.ServerID {
				t.Fatalf("a move to the compiled server %s", alt.ServerID)
			}
			if alt.Plan.Est.TotalMS != ran.cost || alt.RawEst.TotalMS != 10 {
				t.Fatalf("the move to %s carries estimate %v (raw %v), want %v (raw 10)", alt.ServerID, alt.Plan.Est.TotalMS, alt.RawEst.TotalMS, ran.cost)
			}
		}
		if !slices.ContainsFunc(menu, func(c optimizer.FragmentChoice) bool { return c.ServerID == ran.id }) {
			t.Fatalf("ran on %s, off the menu", ran.id)
		}
		if wantChecks := int64(min(n-1, 1)); r.Stats().RescoreChecks != wantChecks {
			t.Fatalf("%d checks on a %d-server menu, want %d", r.Stats().RescoreChecks, n, wantChecks)
		}
		if n == 1 || !anyUp {
			if alt != nil {
				t.Fatalf("moved to %s with nothing to choose from", alt.ServerID)
			}
			return
		}
		if !available(ran) {
			t.Fatalf("ran on %s (%+v) while a server was available", ran.id, *ran)
		}
		if p.Mode == Weighted {
			best := math.Inf(-1)
			for i := range srv {
				if available(&srv[i]) {
					best = max(best, scoreOf(&srv[i]))
				}
			}
			if got := scoreOf(ran); got != best {
				t.Fatalf("weighted ran on %s scoring %v, best %v", ran.id, got, best)
			}
			return
		}
		band := minCost * (1 + r.cfg.Closeness)
		if available(byID(compiled.ServerID)) && byID(compiled.ServerID).cost <= band {
			if alt != nil {
				t.Fatalf("%s moved an in-band pick %s (%v, band %v) to %s", p.Mode, compiled.ServerID, byID(compiled.ServerID).cost, band, alt.ServerID)
			}
			return
		}
		if alt == nil || ran.cost != minCost {
			t.Fatalf("%s kept or moved an out-of-band pick %s to %s (%v), want the cheapest (%v)", p.Mode, compiled.ServerID, ran.id, ran.cost, minCost)
		}
	})
}

// TestDecisionLogRing: the router's decisions land in the journal it was
// given, stamped with the query the context names, and only the most recent
// ring.Decisions of them are kept, oldest first. (Every other test here runs a
// router without a journal: that must record nothing and not panic.)
func TestDecisionLogRing(t *testing.T) {
	j := journal.New()
	r := New(Config{Policy: Policy{Mode: Global, Closeness: 3}, Optimizer: &optimizer.Optimizer{}, Clock: simclock.New(), Journal: j})
	ranked, turn := rankOver(t, choice("S1", 10), choice("S2", 11)), &integrator.Turn{}
	const n = ring.Decisions + 5
	for i := 1; i <= n; i++ {
		r.ChooseGlobal(journal.WithScope(context.Background(), journal.Scope{Query: int64(i)}), ranked, turn)
	}
	if got := j.Decisions.Evicted(); got != 5 {
		t.Errorf("evicted = %d, want 5", got)
	}
	last := j.Decisions.Tail(0)
	if len(last) != ring.Decisions {
		t.Fatalf("retained %d decisions, want the bound %d", len(last), ring.Decisions)
	}
	for i, d := range last {
		if d.QueryID != int64(6+i) || d.Policy != "lb" || d.Query != ranked[0].Query || d.Route == "" || d.Reason == "" {
			t.Fatalf("decision %d = %+v, want query %d's, oldest first", i, d, 6+i)
		}
	}
	if got := j.Decisions.Tail(2); len(got) != 2 || got[0].QueryID != n-1 || got[1].QueryID != n {
		t.Errorf("Tail(2) = %+v, want the last two", got)
	}
}
