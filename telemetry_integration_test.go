package fedqcc_test

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/telemetry"
)

const crossJoin = "SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 5000"

// TestTelemetryFiveLayerTrace is the tentpole acceptance check: a
// two-fragment federated join under background update load must yield one
// trace whose spans cover all five layers, with virtual-time durations that
// sum consistently bottom-up, plus a calibration timeline holding at least
// two distinct samples for every loaded server.
func TestTelemetryFiveLayerTrace(t *testing.T) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	tel := fed.EnableTelemetry()
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})

	// Background update load on the join's source groups. A burst is a write
	// to the logical table, so both of its hosts take it: the replicas a
	// fragment may route to hold what their origins hold.
	loaded := []string{"S1", "S2"}
	for _, id := range loaded {
		h, err := fed.Server(id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetLoad(0.8)
	}
	for _, w := range []struct{ table, host string }{{"orders", "S1"}, {"orders", "R1"}, {"lineitem", "S2"}, {"lineitem", "R2"}} {
		h, err := fed.Server(w.host)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ApplyUpdateBurst(w.table, 50, 7); err != nil {
			t.Fatal(err)
		}
	}

	// Two recalibration cycles with load shifting in between: the timeline
	// must record the factors at two distinct virtual times per server.
	// Probing first gives every server calibration state (fragments may
	// route to replicas), so each publish covers each loaded server.
	for i := 0; i < 4; i++ {
		if _, err := fed.Query(crossJoin); err != nil {
			t.Fatal(err)
		}
	}
	cal.ProbeNow()
	cal.PublishNow()
	for _, id := range loaded {
		h, _ := fed.Server(id)
		h.SetLoad(0.3)
	}
	for i := 0; i < 4; i++ {
		if _, err := fed.Query(crossJoin); err != nil {
			t.Fatal(err)
		}
	}
	cal.ProbeNow()
	cal.PublishNow()

	res, err := fed.Query(crossJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FragmentTimes) != 2 {
		t.Fatalf("want a 2-fragment join, got fragments %v", res.FragmentTimes)
	}

	tr := tel.Tracer().Last()
	if tr == nil || !tr.Done() || tr.Err() != "" {
		t.Fatalf("last trace must be complete and clean: %+v", tr)
	}

	// All five layers appear in the span tree.
	layers := map[telemetry.Layer]bool{}
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		layers[s.Layer()] = true
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(tr.Root)
	for _, l := range []telemetry.Layer{
		telemetry.LayerII, telemetry.LayerMW, telemetry.LayerWrapper,
		telemetry.LayerNetwork, telemetry.LayerRemote,
	} {
		if !layers[l] {
			t.Fatalf("trace missing layer %q; tree:\n%s", l, tr.Tree())
		}
	}

	// Durations sum consistently bottom-up on virtual time.
	const eps = 1e-6
	root := tr.Root
	if d := float64(root.Dur()) - float64(res.ResponseTime); math.Abs(d) > eps {
		t.Fatalf("root span %.6fms != response time %.6fms", float64(root.Dur()), float64(res.ResponseTime))
	}
	var maxFrag, mergeDur float64
	frags := 0
	for _, c := range root.Children() {
		switch c.Name() {
		case "fragment":
			frags++
			maxFrag = math.Max(maxFrag, float64(c.Dur()))
			// fragment == wrapper.execute == send + remote.exec + recv.
			var wexec *telemetry.Span
			for _, cc := range c.Children() {
				if cc.Name() == "wrapper.execute" {
					wexec = cc
				}
			}
			if wexec == nil {
				t.Fatalf("fragment(%s) has no wrapper.execute child:\n%s", c.Server(), tr.Tree())
			}
			if d := float64(c.Dur()) - float64(wexec.Dur()); math.Abs(d) > eps {
				t.Fatalf("fragment(%s) %.6fms != wrapper.execute %.6fms", c.Server(), float64(c.Dur()), float64(wexec.Dur()))
			}
			var sum float64
			for _, hop := range wexec.Children() {
				sum += float64(hop.Dur())
			}
			if d := sum - float64(wexec.Dur()); math.Abs(d) > eps {
				t.Fatalf("wrapper.execute(%s) children sum %.6fms != %.6fms", c.Server(), sum, float64(wexec.Dur()))
			}
		case "merge":
			mergeDur = float64(c.Dur())
			// The span is the merge work the arrivals did not hide; the whole
			// charge and the hidden part are its attributes.
			attrs := map[string]string{}
			for _, a := range c.Attrs() {
				attrs[a.Key] = a.Value
			}
			work, _ := strconv.ParseFloat(attrs["work_ms"], 64)
			overlap, _ := strconv.ParseFloat(attrs["overlap_ms"], 64)
			if math.Abs(work-float64(res.MergeTime)) > 1e-3 || overlap < 0 || math.Abs(work-overlap-mergeDur) > 1e-3 {
				t.Fatalf("merge span %.6fms with work_ms=%q overlap_ms=%q; want work = MergeTime %.6f and work - overlap = the span", mergeDur, attrs["work_ms"], attrs["overlap_ms"], float64(res.MergeTime))
			}
		}
	}
	if frags != 2 {
		t.Fatalf("trace must hold 2 fragment spans, got %d:\n%s", frags, tr.Tree())
	}
	// Root = parallel remote phase (max fragment) + the II-side merge that
	// follows it.
	if d := maxFrag + mergeDur - float64(root.Dur()); math.Abs(d) > eps {
		t.Fatalf("max fragment %.6f + merge %.6f != root %.6f", maxFrag, mergeDur, float64(root.Dur()))
	}

	// Calibration timeline: >= 2 distinct-time samples per loaded server.
	for _, id := range loaded {
		samples := tel.Timelines().Select(func(s *telemetry.FactorSample) bool { return s.Server == id })
		times := map[float64]bool{}
		for _, s := range samples {
			times[float64(s.At)] = true
		}
		if len(times) < 2 {
			t.Fatalf("server %s: want >=2 distinct timeline samples, got %v", id, samples)
		}
	}
}

// TestFragmentSpansListInPlanOrder: the trace lists a query's fragment spans
// in the plan's fragment order, whatever the scheduler does. The README's
// two-fragment replica-pair join, traced on 50 fresh federations at
// GOMAXPROCS 2, renders one tree text.
func TestFragmentSpansListInPlanOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var want string
	for run := 0; run < 50; run++ {
		fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100})
		if err != nil {
			t.Fatal(err)
		}
		tel := fed.EnableTelemetry()
		res, err := fed.Query(crossJoin)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FragmentTimes) != 2 {
			t.Fatalf("want a 2-fragment join, got fragments %v", res.FragmentTimes)
		}
		got := tel.Tracer().Last().Tree()
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d rendered\n%s\nrun 0 rendered\n%s", run, got, want)
		}
	}
}

// TestTelemetryDisabledStaysSilent guards the fast path through the public
// API: with telemetry never enabled, queries must leave no traces, metrics
// or timeline samples behind.
func TestTelemetryDisabledStaysSilent(t *testing.T) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	if _, err := fed.Query(crossJoin); err != nil {
		t.Fatal(err)
	}
	cal.PublishNow()
	tel := fed.Telemetry()
	if tel.Tracer().Len() != 0 {
		t.Fatal("disabled telemetry collected traces")
	}
	if snap := tel.Metrics().Snapshot(); len(snap) != 0 {
		t.Fatalf("disabled telemetry collected metrics: %v", snap)
	}
	if tel.Timelines().Len() != 0 {
		t.Fatal("disabled telemetry collected timeline samples")
	}
}

// TestTelemetryAllocationBudget holds what enabling telemetry costs to an
// allocation budget per query: the 16 RandomQuery statements of seed 1, run in
// order on the paper federation at scale 50. The counts repeat — 227.5
// allocations per query with telemetry off and 262.6 on — and the ceilings
// leave room only for the few a -race build adds (sync.Pool drops there).
func TestTelemetryAllocationBudget(t *testing.T) {
	sqls := make([]string, 0, 16)
	r := rand.New(rand.NewSource(1))
	for len(sqls) < cap(sqls) {
		sqls = append(sqls, experiment.RandomQuery(r))
	}
	for _, c := range []struct {
		telemetry bool
		ceiling   float64
	}{{false, 232}, {true, 268}} {
		fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.telemetry {
			fed.EnableTelemetry()
		}
		perQuery := testing.AllocsPerRun(5, func() {
			for _, q := range sqls {
				if _, err := fed.Query(q); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(sqls))
		if perQuery > c.ceiling {
			t.Errorf("telemetry=%v: %.2f allocations per query, budget %.0f", c.telemetry, perQuery, c.ceiling)
		}
	}
}

// TestReplTelemetryCommands drives the REPL surface end to end: toggling
// collection, then dumping the trace tree, metrics and timeline.
func TestReplTelemetryCommands(t *testing.T) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	fed.EnableTelemetry()
	if _, err := fed.Query(crossJoin); err != nil {
		t.Fatal(err)
	}
	cal.PublishNow()

	tr := fed.Telemetry().Tracer().Last()
	if tr == nil {
		t.Fatal("no trace collected")
	}
	tree := tr.Tree()
	for _, want := range []string{"query", "fragment(", "wrapper.execute(", "remote.exec(", "merge"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("trace tree missing %q:\n%s", want, tree)
		}
	}
	metrics := fedqcc.FormatMetrics(fed.Telemetry().Metrics())
	for _, want := range []string{"ii.queries", "mw.response_ms", "qcc.calibration_factor"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, metrics)
		}
	}
	timeline := fedqcc.FormatTimeline(fed.Telemetry().Timelines())
	if !strings.Contains(timeline, "factor=") {
		t.Fatalf("timeline dump missing samples:\n%s", timeline)
	}
}
