package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	fedqcc "repro"
	"repro/internal/admission"
	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/experiment"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// tracedPasses is how many counted passes the traced run replays with the
// program's telemetry on; as many run with it off, interleaved, so both
// wall minima see the same machine.
const tracedPasses = 8

// runTraced produces the per-layer metrics: virtual numbers from the
// program's own spans over interleaved traced passes, wall numbers from
// best-of-N probes that call each layer's public functions on this
// workload's queries, plans and batches. End-to-end metrics are never taken
// from this run.
func runTraced(s *spec, cfg runConfig) (*outcome, error) {
	began := time.Now()
	e, chk, _, err := prepare(s, cfg)
	if err != nil {
		return nil, err
	}
	n := max(1, int(math.Round(tracedPasses*cfg.passesScale)))
	nq := len(e.queries)
	off, on := newRecorder(nq, n), newRecorder(nq, n)
	log := newSpanLog(s.name, 64*nq)
	tel := e.fed.Telemetry()
	virt := map[string]*virtSum{}
	passSpan := 0
	// routes remembers where each query's fragments last ran: a change from
	// one pass to the next is a route switch (calibration moved the query,
	// or the load balancer rotated it), and the probes below time the plans
	// of the servers the federation actually chose.
	routes := make([]map[string]string, nq)
	switches := 0
	off.onQuery = func(pass, qi int, t0 time.Time, dur time.Duration, res *fedqcc.QueryResult) {
		if prev := routes[qi]; prev != nil && pass < 2*n && !reflect.DeepEqual(prev, res.Route) {
			switches++
		}
		routes[qi] = res.Route
	}
	on.onQuery = func(pass, qi int, t0 time.Time, dur time.Duration, res *fedqcc.QueryResult) {
		off.onQuery(pass, qi, t0, dur, res)
		log.add("federation.query", passSpan, qi, t0, dur)
		if tr := tel.Tracer().Last(); tr != nil {
			sumSpans(tr.Root, virt)
		}
	}
	onePass := func(p int, counted bool) error {
		if p%2 == 0 {
			return e.runPass(p, off, chk, counted)
		}
		e.fed.EnableTelemetry()
		passSpan = log.open("pass", 0, -1)
		err := e.runPass(p, on, chk, counted)
		log.end(passSpan)
		e.fed.DisableTelemetry()
		return err
	}

	plan0, stmt0 := e.fed.PlanCacheStats(), stmtCacheStats(e.fed)
	phase := time.Now()
	for p := 0; p < 2*n; p++ {
		if err := onePass(p, true); err != nil {
			return nil, err
		}
	}
	plan1, stmt1 := e.fed.PlanCacheStats(), stmtCacheStats(e.fed)
	extra := 0
	for time.Since(phase).Seconds() < 0.4*cfg.seconds {
		for i := 0; i < 2; i++ { // keep the two classes' pass counts equal
			if err := onePass(2*n+extra, false); err != nil {
				return nil, err
			}
			extra++
		}
	}
	if s.churn {
		chk.againstOracle(e.oracle, e.queries)
	}

	pr, err := newProber(s, cfg, e.queries, routes, log)
	if err != nil {
		return nil, err
	}
	minRounds := max(1, int(math.Round(3*cfg.passesScale)))
	for rounds := 0; rounds < minRounds || time.Since(phase).Seconds() < 0.9*cfg.seconds; rounds++ {
		if err := pr.round(); err != nil {
			return nil, err
		}
	}

	out := &outcome{
		Workload: s.name, Seed: cfg.seed, Traced: true, Passes: 2 * n, ColdStarts: 1, Queries: nq,
		Attempted: chk.attempted, Failed: chk.failed, Failures: chk.failures,
	}
	samples := float64(len(off.raw) + len(on.raw))
	if len(off.raw) == 0 || len(on.raw) == 0 {
		return nil, fmt.Errorf("%s: no query succeeded", s.name)
	}
	bestOff := micros(off.best)
	var self float64
	for qi := range bestOff {
		self += bestOff[qi] - float64(pr.best["compile_warm"][qi]+pr.best["stream_path"][qi])/1e3
	}
	perQuery := func(stage string) float64 { return experiment.Mean(micros(pr.best[stage])) }
	perRow := func(stage string) float64 {
		var ns int64
		for _, v := range pr.best[stage] {
			ns += v
		}
		return float64(ns) / float64(pr.rows)
	}

	out.add("sqlparser.parse_us", perQuery("parse"), "us")
	out.add("sqlparser.canon_us", perQuery("canon"), "us")
	out.add("optimizer.decompose_us", perQuery("decompose"), "us")
	out.add("optimizer.fragments_per_query", float64(off.fragments+on.fragments)/samples, "count")
	out.add("integrator.compile_cold_us", perQuery("compile_cold"), "us")
	out.add("integrator.compile_warm_us", perQuery("compile_warm"), "us")
	out.add("integrator.plancache_hit_ratio", ratio(plan1.Hits-plan0.Hits, plan1.Misses-plan0.Misses), "ratio")
	out.add("integrator.self_us", self/float64(nq), "us")
	out.add("integrator.virt_merge_ms", (off.mergeMS+on.mergeMS)/samples, "vms")
	resp := append(append([]float64(nil), off.resp...), on.resp...)
	out.add("integrator.virt_resp_ms_p50", percentile(resp, 0.5), "vms")
	out.add("integrator.virt_resp_ms_p95", percentile(resp, 0.95), "vms")
	out.add("admission.admit_ns", admitCost(), "ns")
	out.add("metawrapper.explain_us", perQuery("mw_explain"), "us")
	out.add("wrapper.stream_us", perQuery("stream"), "us")
	out.add("wrapper.batches_per_query", float64(pr.batches)/float64(nq), "count")
	out.add("remote.explain_us", perQuery("remote_explain"), "us")
	out.add("remote.stmtcache_hit_ratio", ratio(stmt1.Hits-stmt0.Hits, stmt1.Misses-stmt0.Misses), "ratio")
	out.add("remote.exec_us", perQuery("remote_exec"), "us")
	out.add("remote.virt_exec_ms", virt["remote.exec"].mean(), "vms")
	out.add("exec.row_us", perQuery("exec_row"), "us")
	out.add("exec.vec_us", perQuery("exec_vec"), "us")
	out.add("colbatch.encode_ns_per_row", perRow("encode"), "ns/row")
	out.add("colbatch.decode_ns_per_row", perRow("decode"), "ns/row")
	out.add("colbatch.wire_bytes_per_row", float64(pr.encBytes)/float64(pr.rows), "B/row")
	out.add("network.transfer_ns", pr.transferCost(), "ns")
	out.add("network.virt_send_ms", virt["network.send"].mean(), "vms")
	out.add("network.virt_recv_ms", virt["network.recv"].mean(), "vms")
	out.add("qcc.publish_us", float64(min(off.publishNS, on.publishNS))/1e3, "us")
	out.add("qcc.est_error_ratio", (off.estErr+on.estErr)/float64(off.estErrN+on.estErrN), "ratio")
	out.add("qcc.route_switches", float64(switches), "count")
	out.add("simclock.charge_ns", chargeCost(), "ns")
	gen, idx, err := storageCost(cfg.scale(s), minRounds)
	if err != nil {
		return nil, err
	}
	out.add("storage.generate_s", gen, "s")
	out.add("storage.index_build_s", idx, "s")
	out.add("telemetry.overhead_pct", 100*(experiment.Mean(micros(on.best))/experiment.Mean(bestOff)-1), "%")
	addHarness(out, off)

	if cfg.spansDir != "" {
		if err := log.write(cfg.spansDir, out.Metrics); err != nil {
			// The spans file is a by-product; a read-only checkout must
			// not fail the run.
			fmt.Printf("# spans not written: %v\n", err)
		}
	}
	out.WallS = time.Since(began).Seconds()
	return out, nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func stmtCacheStats(fed *fedqcc.Federation) fedqcc.StatementCacheStats {
	var sum fedqcc.StatementCacheStats
	for _, id := range fed.ServerIDs() {
		h, err := fed.Server(id)
		if err != nil {
			continue // ServerIDs only lists known servers
		}
		st := h.StatementCacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
	}
	return sum
}

// virtSum accumulates the virtual durations of one span name in fixed
// point (1e-9 virtual ms): parallel fragments attach their spans in
// scheduling order, and a float sum would depend on that order.
type virtSum struct {
	nanoMS int64
	n      int64
}

func (v *virtSum) mean() float64 {
	if v == nil || v.n == 0 {
		return 0
	}
	return float64(v.nanoMS) / 1e9 / float64(v.n)
}

// sumSpans walks one query's span tree from the program's telemetry.
func sumSpans(s *telemetry.Span, into map[string]*virtSum) {
	if s == nil {
		return
	}
	v := into[s.Name()]
	if v == nil {
		v = &virtSum{}
		into[s.Name()] = v
	}
	v.nanoMS += int64(math.Round(float64(s.Dur()) * 1e9))
	v.n++
	for _, c := range s.Children() {
		sumSpans(c, into)
	}
}

// prober walks every distinct query stage by stage through the layers'
// public calls on a second federation built from the same seed, so probing
// never disturbs the federation the passes measure. Every stage keeps, per
// query, its minimum over rounds: the same best-of statistic as the
// end-to-end wall metric.
type prober struct {
	sc        *scenario.Scenario
	queries   []string
	routes    []map[string]string // per query: fragment ID -> server the federation chose
	log       *spanLog
	batchRows int
	best      map[string][]int64
	// Exact counts from the most recent round (they repeat every round).
	batches  int
	rows     int
	encBytes int
	// xfer is one (server, bytes) pair the network probe replays.
	xferDest  string
	xferBytes int
}

var probeStages = []string{
	"canon", "parse", "decompose", "compile_cold", "compile_warm", "mw_explain", "remote_explain",
	"stream", "stream_path", "remote_exec", "exec_row", "exec_vec", "encode", "decode",
}

func newProber(s *spec, cfg runConfig, queries []string, routes []map[string]string, log *spanLog) (*prober, error) {
	sc, err := s.probe(cfg.scale(s))
	if err != nil {
		return nil, fmt.Errorf("%s: building probe federation: %w", s.name, err)
	}
	if s.columnar { // the same flags spec.start sets on the measured federation
		for _, srv := range sc.Servers {
			srv.SetVectorized(true)
			srv.SetColumnarWire(true)
		}
		sc.II.SetVectorized(true)
	}
	p := &prober{sc: sc, queries: queries, routes: routes, log: log, batchRows: sc.II.BatchRows(), best: map[string][]int64{}}
	for _, st := range probeStages {
		p.best[st] = make([]int64, len(queries))
		for i := range p.best[st] {
			p.best[st][i] = math.MaxInt64
		}
	}
	return p, nil
}

func (p *prober) resetCaches() {
	p.sc.II.ClearPlanCache()
	for _, srv := range p.sc.Servers {
		srv.ResetPlanCache()
	}
}

func (p *prober) round() error {
	p.batches, p.rows, p.encBytes = 0, 0, 0
	for qi, sql := range p.queries {
		if err := p.walk(qi, sql); err != nil {
			return fmt.Errorf("probing query %d (%s): %w", qi, sql, err)
		}
	}
	return nil
}

// walk times one query's trip through the layers. Stage totals are summed
// over the query's fragments (and candidate servers, for the explain
// stages) before the per-query minimum is taken.
func (p *prober) walk(qi int, sql string) error {
	ctx := context.Background()
	root := p.log.open("walk", 0, qi)
	defer p.log.end(root)
	total := map[string]int64{}
	var stageErr error
	stage := func(name, spanName string, fn func() error) {
		if stageErr != nil {
			return
		}
		total[name] += p.log.timed(spanName, root, qi, func() { stageErr = fn() })
	}

	stage("canon", "sqlparser.canon", func() error { sqlparser.CanonicalizeSQL(sql); return nil })
	var stmt *sqlparser.SelectStmt
	stage("parse", "sqlparser.parse", func() (err error) { stmt, err = sqlparser.Parse(sql); return })
	var decomp *optimizer.Decomposition
	stage("decompose", "optimizer.decompose", func() (err error) {
		decomp, err = optimizer.DecomposeWith(stmt, p.sc.Catalog, optimizer.DecomposeOpts{})
		return
	})
	if stageErr != nil {
		return stageErr
	}
	for _, frag := range decomp.Fragments {
		for _, sid := range frag.Candidates {
			srv := p.sc.Servers[sid]
			srv.ResetPlanCache()
			stage("mw_explain", "metawrapper.explain", func() error {
				_, err := p.sc.MW.ExplainFragmentContext(ctx, sid, frag.Stmt)
				return err
			})
			srv.ResetPlanCache()
			stage("remote_explain", "remote.explain", func() error { _, err := srv.Explain(frag.Stmt); return err })
		}
	}
	p.resetCaches()
	var gp *optimizer.GlobalPlan
	stage("compile_cold", "integrator.compile_cold", func() (err error) { gp, err = p.sc.II.Compile(sql); return })
	stage("compile_warm", "integrator.compile_warm", func() (err error) { gp, err = p.sc.II.Compile(sql); return })
	if stageErr != nil {
		return stageErr
	}
	var slowest int64
	for i, f := range gp.Fragments {
		// The probe federation has no calibration history; follow the
		// measured federation's routing, not the raw estimates.
		if want := p.routes[qi][f.Spec.ID]; want != "" && want != f.ServerID && i < len(gp.Options) {
			for _, alt := range gp.Options[i] {
				if alt.ServerID == want {
					f = alt
					break
				}
			}
		}
		srv := p.sc.Servers[f.ServerID]
		before := total["stream"]
		stage("stream", "wrapper.stream", func() error {
			st, err := p.sc.MW.OpenFragmentStream(ctx, f.ServerID, f.Spec.Stmt.String(), f.Plan, f.RawEst, p.batchRows)
			if err != nil {
				return err
			}
			for {
				b, err := st.Next(ctx)
				if err != nil || b == nil {
					return err
				}
				p.batches++
			}
		})
		slowest = max(slowest, total["stream"]-before)
		var shipped []*remote.Batch
		stage("remote_exec", "remote.exec", func() error {
			cur, err := srv.OpenPlan(ctx, f.Plan, p.batchRows)
			if err != nil {
				return err
			}
			for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
				shipped = append(shipped, b)
			}
			return nil
		})
		stage("exec_row", "exec.row", func() error { _, err := f.Plan.Root.Execute(&exec.Context{}); return err })
		stage("exec_vec", "exec.vec", func() error { _, err := exec.ExecuteVectorized(f.Plan.Root, &exec.Context{}); return err })
		for _, b := range shipped {
			col := b.Col
			if col == nil {
				col = colbatch.FromRelation(b.Rel)
			}
			var enc *colbatch.Encoded
			stage("encode", "colbatch.encode", func() error { enc = colbatch.Encode(col); return nil })
			stage("decode", "colbatch.decode", func() error { _, err := colbatch.Decode(col.Schema, enc.Data); return err })
			if stageErr != nil {
				return stageErr
			}
			p.rows += col.Len()
			p.encBytes += enc.WireBytes()
			if enc.WireBytes() > p.xferBytes {
				p.xferDest, p.xferBytes = f.ServerID, enc.WireBytes()
			}
		}
	}
	if stageErr != nil {
		return stageErr
	}
	// The integrator dispatches a query's fragments in parallel on two
	// processors: they block it for at least the slowest one and at least
	// half their sum.
	total["stream_path"] = max(slowest, total["stream"]/2)
	for name, ns := range total {
		if ns < p.best[name][qi] {
			p.best[name][qi] = ns
		}
	}
	return nil
}

// perCall returns the best per-call cost of fn in ns over several rounds of
// a tight loop.
func perCall(fn func()) float64 {
	const calls = 2048
	best := int64(math.MaxInt64)
	for round := 0; round < 8; round++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
	}
	return float64(best) / calls
}

// transferCost is the wall cost of one network-model draw for the largest
// batch this workload ships.
func (p *prober) transferCost() float64 {
	ctx := context.Background()
	return perCall(func() {
		p.sc.Topo.TransferBatch(ctx, p.xferDest, p.xferBytes) //nolint:errcheck // links are up; the call's cost is what is measured
	})
}

// admitCost is Admit+Release under the default pass-through policy, the
// fixed admission cost every query pays.
func admitCost() float64 {
	ctl := admission.New(admission.Config{Clock: simclock.New()})
	ctx := context.Background()
	req := admission.Request{Query: "probe", CostMS: 1}
	return perCall(func() {
		if g, err := ctl.Admit(ctx, req); err == nil {
			g.Release()
		}
	})
}

func chargeCost() float64 {
	clock := simclock.New()
	return perCall(func() { clock.Charge(1) })
}

// storageCost times generating the workload's schema without indexes and
// building its indexes afterwards, best of rounds.
func storageCost(scale, rounds int) (generate, index float64, err error) {
	generate, index = math.Inf(1), math.Inf(1)
	for round := 0; round < rounds; round++ {
		var gen, idx time.Duration
		for _, g := range storage.SampleSchema(scale) {
			bare := g
			bare.Indexes = nil
			t0 := time.Now()
			tab, err := bare.Generate(dataSeed)
			if err != nil {
				return 0, 0, err
			}
			gen += time.Since(t0)
			t0 = time.Now()
			for _, ig := range g.Indexes {
				if _, err := tab.CreateIndex(ig.Name, ig.Column, ig.Kind); err != nil {
					return 0, 0, err
				}
			}
			idx += time.Since(t0)
		}
		generate = math.Min(generate, gen.Seconds())
		index = math.Min(index, idx.Seconds())
	}
	return generate, index, nil
}
