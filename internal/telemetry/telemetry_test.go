package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ring"
	"repro/internal/simclock"
)

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	tel.SetEnabled(true)
	if tr := tel.StartTrace(1, "q", 0); tr != nil {
		t.Fatal("nil telemetry started a trace")
	}
	tel.AppendFactor(0, "s", 1)
	if tel.Active() != nil || tel.Tracer() != nil || tel.Metrics() != nil || tel.Timelines() != nil {
		t.Fatal("nil telemetry handed out non-nil components")
	}

	var s *Span
	s.SetAttr("k", "v")
	s.End(1)
	s.Advance(1)
	if c := s.Child("c", LayerII, ""); c != nil {
		t.Fatal("nil span produced a child")
	}
	if c := s.Emit("c", LayerII, "", 1); c != nil {
		t.Fatal("nil span emitted a child")
	}
	if s.Dur() != 0 || s.Name() != "" || len(s.Children()) != 0 {
		t.Fatal("nil span accessors not zero")
	}

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Mean() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram holds samples")
	}
	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("a", "") != nil || r.Histogram("a", "", nil) != nil {
		t.Fatal("nil registry handed out instruments")
	}
	var none *Tracer
	if none.StartTrace(1, "q", 0) != nil || none.Len() != 0 || none.Last() != nil || none.Trace(1) != nil {
		t.Fatal("nil tracer retained a trace")
	}
	none.FinishTrace(nil, nil)
	var ts *TimelineStore
	ts.Add(FactorSample{Server: "s", Factor: 1})
	if ts.Len() != 0 || ts.Tail(0) != nil {
		t.Fatal("nil timeline store retained samples")
	}
}

func TestDisabledCollectsNothing(t *testing.T) {
	tel := New()
	if tel.Enabled() {
		t.Fatal("zero config should be disabled")
	}
	if tr := tel.StartTrace(1, "q", 0); tr != nil {
		t.Fatal("disabled telemetry started a trace")
	}
	if tel.Active() != nil {
		t.Fatal("disabled telemetry returned an active registry")
	}
	tel.AppendFactor(1, "s", 1.5)
	if tel.Timelines().Len() != 0 {
		t.Fatal("disabled telemetry appended a sample")
	}

	tel.SetEnabled(true)
	if tel.StartTrace(1, "q", 0) == nil || tel.Active() == nil {
		t.Fatal("enabled telemetry inert")
	}
	tel.SetEnabled(false)
	if tel.Tracer().Len() != 1 {
		t.Fatal("disabling dropped already-collected traces")
	}
}

func TestSpanCursorModel(t *testing.T) {
	tel := New()
	tel.SetEnabled(true)
	tr := tel.StartTrace(1, "SELECT 1", 100)
	root := tr.Root
	if root.Start() != 100 {
		t.Fatalf("root start = %v, want 100", root.Start())
	}

	// Sequential sub-steps advance the cursor.
	root.Emit("parse", LayerII, "", 2)
	root.Emit("plan", LayerII, "", 3)

	// Parallel fragment children all open at the same cursor.
	f1 := root.Child("fragment", LayerMW, "s1")
	f2 := root.Child("fragment", LayerMW, "s2")
	if f1.Start() != 105 || f2.Start() != 105 {
		t.Fatalf("fragment starts = %v, %v, want both 105", f1.Start(), f2.Start())
	}

	// Each fragment is a sequential chain of known-duration steps.
	f1.Emit("network.send", LayerNetwork, "s1", 4)
	f1.Emit("remote.exec", LayerRemote, "s1", 10)
	f1.Emit("network.recv", LayerNetwork, "s1", 6)
	f1.End(20)
	f2.Emit("network.send", LayerNetwork, "s2", 1)
	f2.Emit("remote.exec", LayerRemote, "s2", 5)
	f2.Emit("network.recv", LayerNetwork, "s2", 2)
	f2.End(8)

	// Leaf durations must sum to the fragment duration exactly.
	for _, f := range []*Span{f1, f2} {
		var sum float64
		for _, c := range f.Children() {
			sum += float64(c.Dur())
		}
		if sum != float64(f.Dur()) {
			t.Fatalf("fragment %s children sum %v != dur %v", f.Server(), sum, f.Dur())
		}
	}

	// Root advances past the parallel phase (max fragment time), then merges.
	root.Advance(20)
	m := root.Emit("merge", LayerII, "", 3)
	if m.Start() != 125 {
		t.Fatalf("merge start = %v, want 125", m.Start())
	}
	root.End(28)
	root.End(99) // repeated End keeps the first duration
	if root.Dur() != 28 {
		t.Fatalf("root dur = %v, want 28", root.Dur())
	}

	tel.Tracer().FinishTrace(tr, nil)
	if !tr.Done() || tr.Err() != "" {
		t.Fatal("trace not finished cleanly")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil {
		t.Fatal("empty context yielded a span")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("nil span should not allocate a new context")
	}
	s := &Span{name: "x"}
	ctx2 := ContextWithSpan(ctx, s)
	if SpanFrom(ctx2) != s {
		t.Fatal("span did not round-trip through context")
	}
}

// smallTracer is a tracer over a ring of n: the bound is not configurable,
// so tests of eviction build theirs directly.
func smallTracer(n int) *Tracer { return &Tracer{traces: ring.NewLog[*Trace](n)} }

func TestTracerRingEviction(t *testing.T) {
	tr := smallTracer(3)
	for i := 0; i < 10; i++ {
		tr.StartTrace(int64(i), fmt.Sprintf("q%d", i), 0)
	}
	if tr.Len() != 3 {
		t.Fatalf("ring length = %d, want 3", tr.Len())
	}
	if tr.Evicted() != 7 {
		t.Fatalf("evicted = %d, want 7", tr.Evicted())
	}
	got := tr.Traces()
	if len(got) != 3 || got[0].Query != "q7" || got[2].Query != "q9" {
		t.Fatalf("ring retained wrong traces: %v", got)
	}
	if tr.Last().Query != "q9" {
		t.Fatalf("Last = %q, want q9", tr.Last().Query)
	}
	// A trace is found by its query's ID while retained, and not after.
	if got := tr.Trace(8); got == nil || got.Query != "q8" {
		t.Fatalf("Trace(8) = %+v, want q8's", got)
	}
	if got := tr.Trace(2); got != nil {
		t.Fatalf("Trace(2) = %+v, want nil for an evicted trace", got)
	}

	full := NewTracer()
	for i := 0; i < ring.Traces+10; i++ {
		full.StartTrace(int64(i), "q", 0)
	}
	if full.Len() != ring.Traces || full.Evicted() != 10 {
		t.Fatalf("default tracer: len=%d evicted=%d, want %d/10", full.Len(), full.Evicted(), ring.Traces)
	}
}

// TestTracerCompaction: sustained eviction keeps the window exact (the ring
// wraps in place; nothing is compacted any more).
func TestTracerCompaction(t *testing.T) {
	tr := smallTracer(2)
	for i := 0; i < 400; i++ {
		tr.StartTrace(int64(i), "q", 0)
	}
	if tr.Len() != 2 || tr.Evicted() != 398 {
		t.Fatalf("len=%d evicted=%d after eviction churn", tr.Len(), tr.Evicted())
	}
	if got := tr.Traces(); got[0].ID != 398 || got[1].ID != 399 {
		t.Fatalf("window = [%d %d], want [398 399]", got[0].ID, got[1].ID)
	}
}

func TestRegistryInstrumentsAndCap(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "")
	c.Inc()
	c.Add(2)
	if got := r.CounterValue("hits", ""); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("factor", "s1")
	g.Set(1.25)
	if v, ok := r.GaugeValue("factor", "s1"); !ok || v != 1.25 {
		t.Fatalf("gauge = %v,%v", v, ok)
	}
	h := r.Histogram("rt", "s1", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	if h.Count() != 3 || h.Sum() != 5055 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	b := h.Buckets()
	if len(b) != 3 || b[0].Count != 1 || b[1].Count != 1 || b[2].Count != 1 {
		t.Fatalf("bucket counts wrong: %+v", b)
	}

	// Fill the registry to MaxSeries with per-server series.
	for i := 3; i < MaxSeries; i++ {
		if r.Counter("pad", fmt.Sprint(i)) == nil {
			t.Fatalf("series %d dropped below the cap", i)
		}
	}
	// Cap reached: existing series still resolve, new ones drop to nil.
	if r.Counter("hits", "") != c {
		t.Fatal("existing series did not resolve at cap")
	}
	if r.Counter("new", "") != nil {
		t.Fatal("cap admitted a series past MaxSeries")
	}
	if r.Gauge("new", "") != nil || r.Histogram("new", "", nil) != nil {
		t.Fatal("cap admitted gauge/histogram series")
	}
	if r.DroppedSeries() != 3 {
		t.Fatalf("dropped = %d, want 3", r.DroppedSeries())
	}

	snap := r.Snapshot()
	if len(snap) != MaxSeries {
		t.Fatalf("snapshot length = %d, want %d", len(snap), MaxSeries)
	}
	if snap[0].Name != "factor" || snap[0].Kind != "gauge" {
		t.Fatalf("snapshot not sorted: %+v", snap[0])
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewRegistry().Histogram("x", "", nil)
	h.Observe(1) // exactly on a bound lands in that bucket (<= semantics)
	b := h.Buckets()
	if b[0].UpperBound != 1 || b[0].Count != 1 {
		t.Fatalf("boundary sample missed first bucket: %+v", b[0])
	}
}

func TestTimelineStore(t *testing.T) {
	ts := ring.NewLog[FactorSample](4)
	for i := 0; i < 6; i++ {
		ts.Add(FactorSample{At: simclock.Time(i * 10), Server: "s1", Factor: 1 + float64(i)/10})
	}
	ts.Add(FactorSample{At: 100, Server: "s2", Factor: 2})
	of := func(server string) []FactorSample {
		return ts.Select(func(s *FactorSample) bool { return s.Server == server })
	}
	if ts.Len() != 4 || ts.Evicted() != 3 {
		t.Fatalf("len=%d evicted=%d, want 4/3", ts.Len(), ts.Evicted())
	}
	s1 := of("s1")
	if len(s1) != 3 || s1[0].At != 30 || s1[2].Factor != 1.5 {
		t.Fatalf("s1 samples wrong: %+v", s1)
	}
	if got := of("s2"); len(got) != 1 || got[0].Factor != 2 {
		t.Fatalf("s2 samples wrong: %+v", got)
	}
}

func TestExporters(t *testing.T) {
	tel := New()
	tel.SetEnabled(true)
	tr := tel.StartTrace(1, "SELECT * FROM t", 10)
	tr.Root.Emit("parse", LayerII, "", 1)
	f := tr.Root.Child("fragment", LayerMW, "srv1")
	f.SetAttr("sql", "SELECT 1")
	f.Emit("remote.exec", LayerRemote, "srv1", 5)
	f.End(5)
	tr.Root.End(6)
	tel.Tracer().FinishTrace(tr, nil)

	tree := tr.Tree()
	for _, want := range []string{"trace #1", "parse", "fragment(srv1)", "remote.exec", "sql=SELECT 1", "total=6.00ms"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded traceJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != 1 || decoded.Root.Name != "query" || len(decoded.Root.Children) != 2 {
		t.Fatalf("JSON round-trip wrong: %+v", decoded)
	}
	if decoded.Root.Children[1].Children[0].Layer != LayerRemote {
		t.Fatal("nested child layer lost in JSON")
	}

	reg := tel.Metrics()
	reg.Counter("ii.retries", "").Inc()
	reg.Gauge("qcc.calibration_factor", "srv1").Set(1.5)
	reg.Histogram("mw.response_ms", "srv1", nil).Observe(12)
	mtext := FormatMetrics(reg)
	for _, want := range []string{"ii.retries", "qcc.calibration_factor{srv1}", "1.5000", "mw.response_ms{srv1}", "count=1"} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, mtext)
		}
	}

	tel.AppendFactor(100, "srv1", 1.2)
	tel.AppendFactor(200, "srv1", 1.8)
	ttext := FormatTimeline(tel.Timelines())
	for _, want := range []string{"srv1:", "t=     100.0ms", "factor=1.8000"} {
		if !strings.Contains(ttext, want) {
			t.Fatalf("timeline text missing %q:\n%s", want, ttext)
		}
	}

	if got := FormatMetrics(nil); !strings.Contains(got, "disabled") {
		t.Fatalf("nil registry format: %q", got)
	}
	if got := FormatTimeline(ring.NewLog[FactorSample](4)); !strings.Contains(got, "no calibration samples") {
		t.Fatalf("empty timeline format: %q", got)
	}
	var nilTrace *Trace
	if nilTrace.Tree() != "(no trace)" {
		t.Fatal("nil trace tree")
	}
}

// TestTelemetryConcurrency is the race-detector target CI runs with -race:
// many goroutines hammer one Telemetry handle across traces, spans, metrics
// and timelines while another flips the enabled switch.
func TestTelemetryConcurrency(t *testing.T) {
	tel := New()
	tel.SetEnabled(true)
	const workers = 8
	const iters = 200
	// Every worker's first pass runs before the switch starts flipping, so
	// the counter is updated however the rest interleaves: a disabled pass is
	// so cheap that all of them could otherwise finish inside one disabled
	// window.
	var wg, firstPass sync.WaitGroup
	firstPass.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			srv := fmt.Sprintf("s%d", w%3)
			for i := 0; i < iters; i++ {
				tr := tel.StartTrace(int64(w*iters+i), "q", simclock.Time(i))
				var root *Span
				if tr != nil {
					root = tr.Root
				}
				root.Emit("parse", LayerII, "", 1)
				f := root.Child("fragment", LayerMW, srv)
				f.Emit("remote.exec", LayerRemote, srv, 2)
				f.SetAttr("i", "x")
				f.End(2)
				root.Advance(2)
				root.End(3)
				tel.Tracer().FinishTrace(tr, nil)

				reg := tel.Active()
				reg.Counter("ii.queries", "").Inc()
				reg.Gauge("qcc.calibration_factor", srv).Set(float64(i))
				reg.Histogram("mw.response_ms", srv, nil).Observe(float64(i))
				tel.AppendFactor(simclock.Time(i), srv, 1.0)
				if i == 0 {
					firstPass.Done()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		firstPass.Wait()
		for i := 0; i < iters; i++ {
			tel.SetEnabled(i%2 == 0)
			_ = tel.Tracer().Traces()
			_ = tel.Metrics().Snapshot()
			_ = tel.Timelines().Tail(0)
			_ = tel.Tracer().Last().Tree()
		}
		tel.SetEnabled(true)
	}()
	wg.Wait()
	if tel.Tracer().Len() > ring.Traces {
		t.Fatalf("trace ring exceeded capacity: %d", tel.Tracer().Len())
	}
	if tel.Metrics().CounterValue("ii.queries", "") == 0 {
		t.Fatal("no counter updates recorded")
	}
}
