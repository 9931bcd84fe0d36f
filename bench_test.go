// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section, plus ablations over QCC's design choices and
// micro-benchmarks of the substrates. Each evaluation bench regenerates the
// corresponding table/figure data and reports the headline numbers as
// benchmark metrics; run with -v to see the formatted rows.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFigure10 -v   # includes the printed figure
package fedqcc_test

import (
	"fmt"
	"math/rand"
	"testing"

	fedqcc "repro"
	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/experiment"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

const (
	benchScale     = 50
	benchInstances = 5
)

func benchOpts() fedqcc.ExperimentOptions {
	return fedqcc.ExperimentOptions{Scale: benchScale, Instances: benchInstances}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkFigure9QTx regenerate the per-query-type load-sensitivity series
// of Figure 9 (a)–(d) and report the S3 load blow-up factor — the paper's
// headline observation per panel.
func benchmarkFigure9(b *testing.B, qt string) {
	b.Helper()
	var last []fedqcc.SensitivityResult
	for i := 0; i < b.N; i++ {
		res, err := fedqcc.RunSensitivityStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		if r.QT != qt {
			continue
		}
		b.ReportMetric(mean(r.Low["S3"]), "s3_low_ms")
		b.ReportMetric(mean(r.High["S3"]), "s3_high_ms")
		b.ReportMetric(mean(r.High["S3"])/mean(r.Low["S3"]), "s3_blowup_x")
		if b.N > 0 {
			b.Logf("\n%s", fedqcc.FormatFigure9([]fedqcc.SensitivityResult{r}))
		}
	}
}

func BenchmarkFigure9QT1(b *testing.B) { benchmarkFigure9(b, "QT1") }
func BenchmarkFigure9QT2(b *testing.B) { benchmarkFigure9(b, "QT2") }
func BenchmarkFigure9QT3(b *testing.B) { benchmarkFigure9(b, "QT3") }
func BenchmarkFigure9QT4(b *testing.B) { benchmarkFigure9(b, "QT4") }

// BenchmarkTable1Phases regenerates the Table 1 load matrix by applying all
// eight phases to a live federation (load levels plus update bursts).
func BenchmarkTable1Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range fed.ServerIDs() {
			h, err := fed.Server(id)
			if err != nil {
				b.Fatal(err)
			}
			h.SetLoad(1)
			if err := h.ApplyUpdateBurst("orders", 10, 1); err != nil {
				b.Fatal(err)
			}
			h.SetLoad(0)
		}
	}
	b.Logf("\n%s", fedqcc.FormatTable1())
}

func runGainStudy(b *testing.B, opts fedqcc.ExperimentOptions) []fedqcc.PhaseOutcome {
	b.Helper()
	var last []fedqcc.PhaseOutcome
	for i := 0; i < b.N; i++ {
		out, err := fedqcc.RunGainStudy(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	return last
}

// BenchmarkTable2Assignments regenerates the fixed-vs-dynamic assignment
// table and reports how often dynamic routing deviated from the static
// registration.
func BenchmarkTable2Assignments(b *testing.B) {
	out := runGainStudy(b, benchOpts())
	deviations := 0
	fixed := map[string]string{"QT1": "S1", "QT2": "S2", "QT3": "S1", "QT4": "S3"}
	for _, o := range out {
		for qt, s := range o.Assignments {
			if s != fixed[qt] {
				deviations++
			}
		}
	}
	b.ReportMetric(float64(deviations), "deviations")
	b.Logf("\n%s", fedqcc.FormatTable2(out))
}

// BenchmarkFigure10GainVsFixed regenerates Figure 10 and reports QCC's
// average gain over the typical fixed registration (paper: ≈50%).
func BenchmarkFigure10GainVsFixed(b *testing.B) {
	out := runGainStudy(b, benchOpts())
	g1, _ := fedqcc.AverageGains(out)
	b.ReportMetric(g1*100, "avg_gain_pct")
	b.ReportMetric(out[7].Gain1*100, "all_loaded_gain_pct")
	b.Logf("\n%s", fedqcc.FormatFigure10(out))
}

// BenchmarkFigure11GainVsBestServer regenerates Figure 11 and reports QCC's
// average gain over always-S3 routing in the S3-loaded phases (paper: ≈20%).
func BenchmarkFigure11GainVsBestServer(b *testing.B) {
	out := runGainStudy(b, benchOpts())
	var loaded []float64
	for _, o := range out {
		if o.Phase.Loaded["S3"] && !(o.Phase.Loaded["S1"] && o.Phase.Loaded["S2"]) {
			loaded = append(loaded, o.Gain2*100)
		}
	}
	b.ReportMetric(mean(loaded), "s3_loaded_gain_pct")
	_, g2 := fedqcc.AverageGains(out)
	b.ReportMetric(g2*100, "avg_gain_pct")
	b.Logf("\n%s", fedqcc.FormatFigure11(out))
}

// ---- Ablations over QCC design choices ----

// BenchmarkAblationCalibrationGranularity compares per-(server,fragment)
// factors (the paper's "and query fragment if runtime statistics is
// available") against server-only factors.
func BenchmarkAblationCalibrationGranularity(b *testing.B) {
	off := false
	for _, cfg := range []struct {
		name string
		opts fedqcc.ExperimentOptions
	}{
		{"per-fragment", benchOpts()},
		{"server-only", func() fedqcc.ExperimentOptions {
			o := benchOpts()
			o.CalibrationPerFragment = &off
			return o
		}()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			out := runGainStudy(b, cfg.opts)
			g1, _ := fedqcc.AverageGains(out)
			b.ReportMetric(g1*100, "avg_gain_pct")
		})
	}
}

// BenchmarkAblationLBLevel compares §4.1 fragment-level and §4.2
// global-level load distribution against no load distribution, measuring
// how evenly executions spread across the replicas of the §4 scenario.
func BenchmarkAblationLBLevel(b *testing.B) {
	const q = `SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 5`
	for _, mode := range []fedqcc.LBMode{fedqcc.LBOff, fedqcc.LBFragment, fedqcc.LBGlobal} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			spreadSum := 0.0
			for i := 0; i < b.N; i++ {
				fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				fed.EnableQCC(fedqcc.QCCOptions{
					DisableDaemons: true,
					LoadBalance:    mode,
					LBCloseness:    0.5,
				})
				for j := 0; j < 12; j++ {
					if _, err := fed.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				used := 0
				for _, id := range fed.ServerIDs() {
					h, _ := fed.Server(id)
					if h.Executed() > 0 {
						used++
					}
				}
				spreadSum += float64(used)
			}
			b.ReportMetric(spreadSum/float64(b.N), "servers_used")
		})
	}
}

// BenchmarkAblationCloseness sweeps the §4 closeness band: 0 pins the
// cheapest plan, the paper's 20%, and a generous 50%.
func BenchmarkAblationCloseness(b *testing.B) {
	const q = "SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100"
	for _, cl := range []struct {
		name string
		v    float64
	}{{"0pct", 0.0001}, {"20pct", 0.2}, {"50pct", 3.0}} {
		cl := cl
		b.Run(cl.name, func(b *testing.B) {
			rotations := 0.0
			for i := 0; i < b.N; i++ {
				fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				cal := fed.EnableQCC(fedqcc.QCCOptions{
					DisableDaemons: true,
					LoadBalance:    fedqcc.LBGlobal,
					LBCloseness:    cl.v,
				})
				for j := 0; j < 9; j++ {
					if _, err := fed.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				rotations += float64(cal.RoutingStats().Rotations)
			}
			b.ReportMetric(rotations/float64(b.N), "rotations")
		})
	}
}

// BenchmarkAblationRecalibrationCycle compares a fixed recalibration cycle
// against the §3.4 dynamic cycle under a load step, measuring how quickly
// the published factor catches up (queries until reroute).
func BenchmarkAblationRecalibrationCycle(b *testing.B) {
	const q = "SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01"
	for _, cfg := range []struct {
		name  string
		fixed bool
		ms    float64
	}{{"fixed-slow", true, 2000}, {"fixed-fast", true, 50}, {"dynamic", false, 500}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			reroutes := 0.0
			for i := 0; i < b.N; i++ {
				fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				fed.EnableQCC(fedqcc.QCCOptions{
					RecalibrationMS: cfg.ms,
					FixedCycle:      cfg.fixed,
				})
				res, err := fed.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				busy := res.Route["QF1"]
				h, _ := fed.Server(busy)
				h.SetLoad(1)
				queries := 0.0
				for j := 0; j < 20; j++ {
					r, err := fed.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					queries++
					if r.Route["QF1"] != busy {
						break
					}
				}
				reroutes += queries
			}
			b.ReportMetric(reroutes/float64(b.N), "queries_to_reroute")
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkCompile measures the federated compile path cold vs warm. Cold
// resets both caching layers every iteration, so each compile pays parse,
// decomposition and a remote planner round-trip per candidate server; warm
// is served by the federated plan cache and re-runs only calibration, winner
// re-pick and routing. The acceptance bar for the cache is >= 5x.
func BenchmarkCompile(b *testing.B) {
	const q = "SELECT SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000"
	newFed := func(b *testing.B) *fedqcc.Federation {
		fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		return fed
	}
	b.Run("cold", func(b *testing.B) {
		fed := newFed(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fed.ResetCompileCaches()
			if _, err := fed.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		fed := newFed(b)
		if _, err := fed.Explain(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s := fed.PlanCacheStats()
		b.ReportMetric(float64(s.Hits)/float64(s.Hits+s.Misses)*100, "hit_pct")
	})
}

// BenchmarkRepeatedWorkload measures end-to-end Query throughput of a
// repeated query-type workload (three types, three parameter variants each)
// with every compile cache dropped before each query (cache=off) vs kept
// (cache=on) — the realistic win: repeated statements skip all compile-time
// wrapper round-trips.
func BenchmarkRepeatedWorkload(b *testing.B) {
	sqls := []string{
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100",
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000",
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 9000",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 5",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9900 AND l.l_qty < 3",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.05",
	}
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !cached {
					fed.ResetCompileCaches()
				}
				if _, err := fed.Query(sqls[i%len(sqls)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cached {
				s := fed.PlanCacheStats()
				b.ReportMetric(float64(s.Hits), "cache_hits")
			}
		})
	}
}

func BenchmarkQueryEndToEnd(b *testing.B) {
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplainOnly(b *testing.B) {
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Explain("SELECT SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhatIfEnumeration(b *testing.B) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	wi, err := cal.WhatIf()
	if err != nil {
		b.Fatal(err)
	}
	const q = "SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wi.EnumeratePlans(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFederationBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkAwareness regenerates the congestion sweep: QCC's
// calibration absorbs network degradation exactly like processing latency,
// the "network aware" half of the paper's title.
func BenchmarkNetworkAwareness(b *testing.B) {
	var last []fedqcc.NetworkOutcome
	for i := 0; i < b.N; i++ {
		out, err := fedqcc.RunNetworkStudy(benchOpts(), []float64{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	heavy := last[len(last)-1]
	b.ReportMetric(heavy.Gain*100, "gain_at_16x_pct")
	b.ReportMetric(heavy.FixedAvgMS/last[0].FixedAvgMS, "pinned_blowup_x")
	b.ReportMetric(heavy.QCCAvgMS/last[0].QCCAvgMS, "qcc_blowup_x")
	b.Logf("\n%s", fedqcc.FormatNetworkStudy(last))
}

// BenchmarkRuntimeReroute measures the long-running-query extension: the
// per-dispatch overhead of re-checking calibrated costs, and how often it
// saves a stale plan under churning load.
func BenchmarkRuntimeReroute(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
			cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, RuntimeReroute: enabled})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := cal.RoutingStats()
			b.ReportMetric(float64(st.RescoreSwitches), "switched")
			b.ReportMetric(float64(st.RescoreChecks), "checked")
		})
	}
}

// BenchmarkLoadDistribution regenerates the §4 rotation study under
// query-induced hot-spotting and reports rotation's improvement over
// pinning.
func BenchmarkLoadDistribution(b *testing.B) {
	var last []fedqcc.LBOutcome
	for i := 0; i < b.N; i++ {
		out, err := fedqcc.RunLoadBalanceStudy(benchOpts(), 30)
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	byMode := map[string]fedqcc.LBOutcome{}
	for _, o := range last {
		byMode[o.Mode] = o
	}
	off, glob := byMode["off"], byMode["global"]
	if off.AvgMS > 0 {
		b.ReportMetric((off.AvgMS-glob.AvgMS)/off.AvgMS*100, "rotation_gain_pct")
	}
	b.ReportMetric(float64(glob.ServersUsed), "servers_used")
	b.Logf("\n%s", fedqcc.FormatLoadBalanceStudy(last))
}

// BenchmarkConcurrentThroughput measures federated query throughput from 1,
// 4 and 16 goroutines calling QueryContext over a fixed mixed workload. Wall-clock ns/op falling as sessions rise shows
// the fan-out pipeline actually overlaps work; vq_ms_per_query (virtual
// time) stays flat because virtual-time charges serialize deterministically.
func BenchmarkConcurrentThroughput(b *testing.B) {
	sqls := make([]string, 0, 32)
	r := rand.New(rand.NewSource(1))
	for len(sqls) < cap(sqls) {
		sqls = append(sqls, experiment.RandomQuery(r))
	}
	for _, sessions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: benchScale, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			start := fed.Now()
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, errs := queryConcurrently(fed, sqls, sessions)
				for _, e := range errs {
					if e != nil {
						b.Fatal(e)
					}
				}
				queries += len(sqls)
			}
			b.StopTimer()
			if queries > 0 {
				b.ReportMetric(float64(fed.Now()-start)/float64(queries), "vq_ms_per_query")
				b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
			}
		})
	}
}

// vbRelation builds an n-row relation with an int column a (n/50 distinct
// values), a float column b, and a short string column c.
func vbRelation(n int) *sqltypes.Relation {
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "b", Type: sqltypes.KindFloat},
		sqltypes.Column{Name: "c", Type: sqltypes.KindString},
	))
	mod := int64(max(n/50, 1))
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, sqltypes.Row{
			sqltypes.NewInt(int64(i) % mod),
			sqltypes.NewFloat(float64(i) * 0.5),
			sqltypes.NewString(fmt.Sprintf("v%03d", i%997)),
		})
	}
	return rel
}

// vbValues wraps a relation as a Values leaf carrying both representations,
// the steady state of a columnar pipeline (fragments arrive as batches): the
// row engine reads Rel, the columnar engine Col.
func vbValues(rel *sqltypes.Relation) *exec.Values {
	return &exec.Values{Rel: rel, Col: colbatch.FromRelation(rel), Label: "bench"}
}

// vbTable stores a relation as a table, the leaf every server plan reads.
func vbTable(b *testing.B, name string, rel *sqltypes.Relation) *storage.Table {
	tab := storage.NewTable(name, rel.Schema)
	if err := tab.Append(rel.Rows...); err != nil {
		b.Fatal(err)
	}
	return tab
}

// vbOrdersLineitem stores QT1's two 100k-row tables: orders(o_id, o_amount),
// half of whose rows have o_amount > 5000, and lineitem(l_orderkey, l_price),
// each line naming one order.
func vbOrdersLineitem(b *testing.B) (orders, lineitem *storage.Table) {
	o := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "o_id", Type: sqltypes.KindInt}, sqltypes.Column{Name: "o_amount", Type: sqltypes.KindFloat}))
	l := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "l_orderkey", Type: sqltypes.KindInt}, sqltypes.Column{Name: "l_price", Type: sqltypes.KindFloat}))
	for i := 0; i < 100_000; i++ {
		o.Rows = append(o.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i * 7919 % 10000))})
		l.Rows = append(l.Rows, sqltypes.Row{sqltypes.NewInt(int64(i * 31337 % 100_000)), sqltypes.NewFloat(float64(i%1000) + 0.5)})
	}
	return vbTable(b, "orders", o), vbTable(b, "lineitem", l)
}

// vbQT1 is QT1's plan as a server builds it (filter, hash join, scalar SUM and
// COUNT) over scans of vbOrdersLineitem's tables.
func vbQT1(b *testing.B) exec.Operator {
	orders, lineitem := vbOrdersLineitem(b)
	stmt, err := sqlparser.Parse("SELECT SUM(l.l_price), COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 5000")
	if err != nil {
		b.Fatal(err)
	}
	op, err := exec.BuildPlan(stmt, map[string]exec.Operator{
		"o": &exec.SeqScan{Table: orders, As: "o"},
		"l": &exec.SeqScan{Table: lineitem, As: "l"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// vbJoinStored is the hash join alone over vbOrdersLineitem's tables: the
// orders that pass o_amount > 5000 (a filtered scan, windows of one set of
// columns) hashed on o_id, lineitem streamed on l_orderkey.
func vbJoinStored(b *testing.B) exec.Operator {
	orders, lineitem := vbOrdersLineitem(b)
	return &exec.HashJoin{
		Build: &exec.Filter{
			Input: &exec.SeqScan{Table: orders, As: "o"},
			Pred:  &sqlparser.BinaryExpr{Op: sqlparser.OpGt, Left: &sqlparser.ColumnRef{Name: "o_amount"}, Right: &sqlparser.Literal{Val: sqltypes.NewFloat(5000)}},
		},
		Probe:    &exec.SeqScan{Table: lineitem, As: "l"},
		BuildKey: &sqlparser.ColumnRef{Name: "o_id"},
		ProbeKey: &sqlparser.ColumnRef{Name: "l_orderkey"},
	}
}

// vbQT2 is QT2's plan with the index nested-loop join a server picks for it
// (filter on customer, index join into orders on o_custkey, scalar SUM and
// COUNT) over two stored 100k-row tables: customer(c_id, c_discount), half
// of whose rows pass the filter, and orders(o_id, o_custkey, o_amount), each
// order naming one customer, with a hash index on o_custkey.
func vbQT2(b *testing.B) exec.Operator {
	customer := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "c_id", Type: sqltypes.KindInt}, sqltypes.Column{Name: "c_discount", Type: sqltypes.KindFloat}))
	orders := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: "o_id", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "o_custkey", Type: sqltypes.KindInt}, sqltypes.Column{Name: "o_amount", Type: sqltypes.KindFloat}))
	for i := 0; i < 100_000; i++ {
		customer.Rows = append(customer.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i*7919%2000) / 10000)})
		orders.Rows = append(orders.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 31337 % 100_000)), sqltypes.NewFloat(float64(i % 1000))})
	}
	ordersTab := vbTable(b, "orders", orders)
	custkey, err := ordersTab.CreateIndex("orders_cust", "o_custkey", storage.IndexHash)
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := sqlparser.Parse("SELECT SUM(o.o_amount), COUNT(*) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.1")
	if err != nil {
		b.Fatal(err)
	}
	join := &exec.IndexNLJoin{
		Outer: &exec.Filter{
			Input: &exec.SeqScan{Table: vbTable(b, "customer", customer), As: "c"},
			Pred:  stmt.Where,
		},
		Inner: ordersTab, Index: custkey, InnerAs: "o",
		OuterKey: &sqlparser.ColumnRef{Table: "c", Name: "c_id"},
	}
	op, err := exec.BuildTop(stmt, join)
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// BenchmarkVectorizedKernels times each operator kernel on the row engine and
// on the columnar engine over the same operator tree. The filter, the
// aggregate, join_stored, qt1 and inl read stored tables through SeqScan, as
// every server plan does; the other kernels read a single-batch Values, the shape of a
// merged fragment result.
func BenchmarkVectorizedKernels(b *testing.B) {
	col := func(name string) sqlparser.Expr { return &sqlparser.ColumnRef{Name: name} }
	lit := func(v int64) sqlparser.Expr { return &sqlparser.Literal{Val: sqltypes.NewInt(v)} }
	scanTab := storage.NewTable("bench_scan", sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "b", Type: sqltypes.KindFloat},
	))
	for i := 0; i < 100_000; i++ {
		scanTab.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) * 0.25)})
	}
	stored := vbTable(b, "bench_stored", vbRelation(100_000)) // a = i % 2000
	big, mid := vbRelation(200_000), vbRelation(100_000)
	joinLeft, joinRight := vbRelation(20_000), vbRelation(20_000)
	kernels := []struct {
		name string
		op   exec.Operator
	}{
		{"scan", &exec.SeqScan{Table: scanTab, As: "t"}},
		{"filter", &exec.Filter{
			Input: &exec.SeqScan{Table: stored, As: "t"},
			Pred:  &sqlparser.BinaryExpr{Op: sqlparser.OpLt, Left: col("a"), Right: lit(1000)},
		}},
		{"project", &exec.Project{
			Input: vbValues(big),
			Items: []sqlparser.SelectItem{
				{Expr: col("a")},
				{Expr: &sqlparser.BinaryExpr{Op: sqlparser.OpMul, Left: col("b"), Right: col("b")}, Alias: "bb"},
				{Expr: &sqlparser.BinaryExpr{Op: sqlparser.OpAdd, Left: col("a"), Right: lit(7)}, Alias: "a7"},
			},
		}},
		{"agg", &exec.Aggregate{
			Input: &exec.SeqScan{Table: stored, As: "t"},
			Aggs: []*sqlparser.AggExpr{
				{Func: sqlparser.AggSum, Arg: col("b")},
				{Func: sqlparser.AggMin, Arg: col("a")},
				{Func: sqlparser.AggCount},
			},
		}},
		{"agg_group", &exec.Aggregate{
			Input:   vbValues(mid),
			GroupBy: []sqlparser.Expr{col("a")},
			Aggs:    []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: col("b")}, {Func: sqlparser.AggCount}},
		}},
		{"sort", &exec.Sort{
			Input: vbValues(mid),
			Keys:  []sqlparser.OrderItem{{Expr: col("a")}, {Expr: col("b"), Desc: true}},
		}},
		{"join", &exec.HashJoin{
			Build: vbValues(joinLeft), Probe: vbValues(joinRight), BuildKey: col("b"), ProbeKey: col("b"),
		}},
		{"join_stored", vbJoinStored(b)},
		{"qt1", vbQT1(b)},
		{"inl", vbQT2(b)},
	}
	for _, k := range kernels {
		for _, vectorized := range []bool{false, true} {
			run := func() error {
				if vectorized {
					_, err := exec.ExecuteVectorized(k.op, &exec.Context{})
					return err
				}
				_, err := k.op.Execute(&exec.Context{})
				return err
			}
			engine := "row"
			if vectorized {
				engine = "vec"
			}
			b.Run(k.name+"/"+engine, func(b *testing.B) {
				if err := run(); err != nil { // the columnar scan cache is part of the steady state
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVectorizedEndToEnd times the streamed large-result query over the
// slow link. Its virtual outcome is not checked here: the slow_link probe's
// scan row pins it.
func BenchmarkVectorizedEndToEnd(b *testing.B) {
	const query = "SELECT l.l_orderkey, l.l_price FROM lineitem AS l WHERE l.l_price > 10"
	fed := slowLinkFederation(b)
	if _, err := fed.Query(query); err != nil { // warm the compile caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Query(query); err != nil {
			b.Fatal(err)
		}
	}
}
