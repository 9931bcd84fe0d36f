package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/integrator"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A probe is a seeded federation, declared through scenario.Assembly, and a
// fixed list of statements per configuration. Its rows put the virtual
// latencies beside the bytes that crossed the wire and the query-level
// estimate error — the quantities that repeat exactly where wall time does
// not — and TestProbesGolden pins every digit of them. Every statement's rows
// are checked against a single-site oracle over the same generated data.

// ProbeRow is one configuration of one probe, measured over its statements.
type ProbeRow struct {
	// Probe names the probe and Config the configuration within it.
	Probe, Config string
	// Queries counts the statements measured and Rows the rows the completed
	// ones returned.
	Queries, Rows int
	// MeanMS, P50MS, P95MS and P99MS summarize the completed statements'
	// end-to-end latency (admission queue wait plus response time) in virtual
	// ms; FirstRowMS is their mean first-row time.
	MeanMS, P50MS, P95MS, P99MS, FirstRowMS float64
	// WireBytes and Fragments are per completed statement: the bytes its
	// fragment runs shipped, and how many runs there were.
	WireBytes, Fragments float64
	// Executions counts the fragments each server executed.
	Executions map[string]int64
	// Admitted and Shed are the admission controller's grants and
	// queue-deadline sheds.
	Admitted, Shed int64
	// EstErr is the mean over completed statements of
	// |TotalEstMS − ResponseTime| / ResponseTime, TotalEstMS being the last
	// winner the statement's compilation recorded in the journal.
	EstErr float64
}

// probes lists every probe in report order.
var probes = []struct {
	name string
	run  func(name string) ([]ProbeRow, error)
}{
	{"sharded", shardedProbe},
	{"wire", wireProbe},
	{"weighted", weightedProbe},
	{"admission", admissionProbe},
	{"slow_link", slowLinkProbe},
	{"join_limit", joinLimitProbe},
	{"adversarial_from", adversarialFromProbe},
	{"blocking_join", blockingJoinProbe},
	{"multitenant", multitenantProbe},
}

// Probes runs every probe and returns its rows in report order.
func Probes() ([]ProbeRow, error) {
	var out []ProbeRow
	for _, p := range probes {
		rows, err := p.run(p.name)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}

// FormatProbes renders the rows one per line under a header.
func FormatProbes(rows []ProbeRow) string {
	var b strings.Builder
	b.WriteString("Probes — latency in virtual ms; wire bytes and fragments per query; esterr = |est − response| / response\n")
	for _, r := range rows {
		b.WriteString(formatProbeRow(r))
	}
	return b.String()
}

// formatProbeRow prints every float at full precision, so the line is the row.
func formatProbeRow(r ProbeRow) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	ids := make([]string, 0, len(r.Executions))
	for id := range r.Executions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	execs := make([]string, len(ids))
	for i, id := range ids {
		execs[i] = fmt.Sprintf("%s:%d", id, r.Executions[id])
	}
	return fmt.Sprintf("%s %s: q=%d rows=%d mean=%s p50=%s p95=%s p99=%s first=%s wire=%s frags=%s exec=%s admitted=%d shed=%d esterr=%s\n",
		r.Probe, r.Config, r.Queries, r.Rows, g(r.MeanMS), g(r.P50MS), g(r.P95MS), g(r.P99MS), g(r.FirstRowMS),
		g(r.WireBytes), g(r.Fragments), strings.Join(execs, ","), r.Admitted, r.Shed, g(r.EstErr))
}

// meter measures one probe row on one federation and its admission
// controller. It counts from where it is created, so a warm-up pass before
// that is not in the row.
type meter struct {
	sc     *scenario.Scenario
	adm    *admission.Controller
	oracle *oracle
	exec0  map[string]int64
	adm0   [2]int64

	queries, rows, bytes, frags int
	lat, first, estErr          []float64
}

func newMeter(sc *scenario.Scenario, adm *admission.Controller, o *oracle) *meter {
	m := &meter{sc: sc, adm: adm, oracle: o, exec0: executions(sc, nil)}
	m.adm0 = admissionCounts(adm)
	return m
}

// passThrough installs the unlimited admission controller every public
// federation carries.
func passThrough(sc *scenario.Scenario) *admission.Controller {
	adm := admission.New(admission.Config{Clock: sc.Clock})
	sc.II.SetAdmission(adm)
	return adm
}

// executions reads every server's executed-fragment count, less since's.
func executions(sc *scenario.Scenario, since map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(sc.Servers))
	for id, srv := range sc.Servers {
		out[id] = srv.Executed() - since[id]
	}
	return out
}

func admissionCounts(adm *admission.Controller) (n [2]int64) {
	for _, cs := range adm.Stats().Classes {
		n[0] += cs.Admitted
		n[1] += cs.Shed
	}
	return n
}

// add records one statement's outcome. A statement admission refused is
// counted, not failed; any other error fails the probe, as does a row the
// oracle does not return.
func (m *meter) add(sql string, res *integrator.QueryResult, err error) error {
	m.queries++
	if errors.Is(err, admission.ErrAdmissionRejected) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	if m.oracle != nil {
		if err := m.oracle.check(sql, res.Rel); err != nil {
			return err
		}
	}
	rec, ok := m.sc.II.Journal().Record(res.ID)
	if !ok || len(rec.Winners) == 0 {
		return fmt.Errorf("%s: query %d has no journal record", sql, res.ID)
	}
	for _, run := range rec.Runs {
		m.bytes += int(run.OutBytes)
	}
	m.frags += len(rec.Runs)
	m.rows += len(res.Rel.Rows)
	m.lat = append(m.lat, float64(res.QueueWait+res.ResponseTime))
	m.first = append(m.first, float64(res.FirstRowTime))
	resp := float64(res.ResponseTime)
	m.estErr = append(m.estErr, math.Abs(rec.Winners[len(rec.Winners)-1].TotalEstMS-resp)/resp)
	return nil
}

func (m *meter) row(probe, config string) ProbeRow {
	done := float64(len(m.lat))
	adm := admissionCounts(m.adm)
	return ProbeRow{
		Probe:      probe,
		Config:     config,
		Queries:    m.queries,
		Rows:       m.rows,
		MeanMS:     Mean(m.lat),
		P50MS:      percentile(m.lat, 0.50),
		P95MS:      percentile(m.lat, 0.95),
		P99MS:      percentile(m.lat, 0.99),
		FirstRowMS: Mean(m.first),
		WireBytes:  float64(m.bytes) / done,
		Fragments:  float64(m.frags) / done,
		Executions: executions(m.sc, m.exec0),
		Admitted:   adm[0] - m.adm0[0],
		Shed:       adm[1] - m.adm0[1],
		EstErr:     Mean(m.estErr),
	}
}

// measure runs the statements in order on a fresh meter, after one unmeasured
// pass over them when warm is set: the steady state, compile caches filled.
func measure(sc *scenario.Scenario, o *oracle, stmts []string, warm bool) (*meter, error) {
	adm := passThrough(sc)
	if warm {
		for _, sql := range stmts {
			if _, err := sc.II.Query(sql); err != nil {
				return nil, fmt.Errorf("%s: %w", sql, err)
			}
		}
	}
	m := newMeter(sc, adm, o)
	for _, sql := range stmts {
		res, err := sc.II.Query(sql)
		if err := m.add(sql, res, err); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// oracle answers statements from one unindexed copy of a probe's generated
// tables with the reference plan builder (GroundTruth's).
type oracle struct {
	tables  map[string]*storage.Table
	answers map[string]*sqltypes.Relation
}

func newOracle(seed int64, gens []storage.TableGen) (*oracle, error) {
	o := &oracle{tables: map[string]*storage.Table{}, answers: map[string]*sqltypes.Relation{}}
	for _, g := range gens {
		g.Indexes = nil // the reference plan only scans
		tab, err := g.Generate(seed)
		if err != nil {
			return nil, err
		}
		o.tables[g.Name] = tab
	}
	return o, nil
}

// check compares a federated result with the oracle's answer as multisets of
// rows. Under a LIMIT without ORDER BY any rows of the unlimited answer may
// come back, so it checks the count and that each row is one of them.
func (o *oracle) check(sql string, got *sqltypes.Relation) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	limit := -1
	if stmt.Limit >= 0 && len(stmt.OrderBy) == 0 {
		limit, stmt.Limit = stmt.Limit, -1
	}
	key := stmt.String()
	want, ok := o.answers[key]
	if !ok {
		if want, err = groundTruth(stmt, func(name string) *storage.Table { return o.tables[name] }); err != nil {
			return fmt.Errorf("oracle for %s: %w", sql, err)
		}
		o.answers[key] = want
	}
	if limit < 0 {
		if diff := RelationsEquivalent(got, want, false); diff != "" {
			return fmt.Errorf("%s: the oracle disagrees: %s", sql, diff)
		}
		return nil
	}
	if n := min(limit, want.Cardinality()); got.Cardinality() != n {
		return fmt.Errorf("%s: %d rows, the oracle's answer has %d", sql, got.Cardinality(), n)
	}
	pool := map[string]int{}
	for _, r := range renderRows(want) {
		pool[r]++
	}
	for _, r := range renderRows(got) {
		if pool[r] == 0 {
			return fmt.Errorf("%s: row %s is not in the oracle's answer", sql, r)
		}
		pool[r]--
	}
	return nil
}

// ---- The virtual halves of the sharded, wire, weighted and admission studies ----

// shardQuery is aggregate-heavy on purpose: with pushdown every shard ships a
// handful of partial-aggregate states; without it every shard ships the three
// columns the aggregation reads, which is what the columnar wire compresses.
const shardQuery = "SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag"

// shipMode maps a (pushdown, columnar wire) flag pair to the ship-mode
// vocabulary shared with fragment spans and the journal's run entries.
func shipMode(pushdown, wire bool) string {
	switch {
	case pushdown && wire:
		return "pushdown-col"
	case pushdown:
		return "pushdown"
	case wire:
		return "col-ship"
	default:
		return "row-ship"
	}
}

// shardConfig is one point of a shard grid: the shard count and the
// (pushdown, columnar wire) flags.
type shardConfig struct {
	shards         int
	pushdown, wire bool
}

// shardGrid measures shardQuery's steady state on a fresh BuildSharded
// federation (seed 42) per configuration.
func shardGrid(name string, scale int, configs []shardConfig) ([]ProbeRow, error) {
	o, err := newOracle(42, storage.SampleSchema(scale))
	if err != nil {
		return nil, err
	}
	var out []ProbeRow
	for _, c := range configs {
		sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: c.shards, Scale: scale})
		if err != nil {
			return nil, err
		}
		for _, srv := range sc.Servers {
			srv.SetColumnarWire(c.wire)
		}
		sc.II.SetShardPushdown(c.pushdown)
		m, err := measure(sc, o, []string{shardQuery}, true)
		if err != nil {
			return nil, err
		}
		out = append(out, m.row(name, fmt.Sprintf("shards=%d %s", c.shards, shipMode(c.pushdown, c.wire))))
	}
	return out, nil
}

// shardedProbe is the scale-out study (2 000 lineitem rows): the unsharded
// baseline, then partial-aggregate pushdown against shipping every shard's
// rows at 2, 4 and 8 shards, all on the default columnar wire.
func shardedProbe(name string) ([]ProbeRow, error) {
	configs := []shardConfig{{1, true, true}}
	for _, n := range []int{2, 4, 8} {
		configs = append(configs, shardConfig{n, true, true}, shardConfig{n, false, true})
	}
	return shardGrid(name, 400, configs)
}

// wireProbe is the columnar wire study (2 500 lineitem rows, fine enough that
// per-row encoding dominates): every ship mode at 1, 2, 4 and 8 shards.
func wireProbe(name string) ([]ProbeRow, error) {
	var configs []shardConfig
	for _, n := range []int{1, 2, 4, 8} {
		for _, pushdown := range []bool{false, true} {
			for _, wire := range []bool{false, true} {
				configs = append(configs, shardConfig{n, pushdown, wire})
			}
		}
	}
	return shardGrid(name, 40, configs)
}

// weightedArms are the two routing policies of the hotspot study.
var weightedArms = []struct {
	policy  string
	routing router.Policy
}{
	{"round-robin", router.Policy{Mode: router.Global}},
	{"weighted", router.Policy{Mode: router.Weighted}},
}

// weightedProbe is the hotspot study at scale 20 (5 000-row hot tables) with
// its 60-query burst.
func weightedProbe(name string) ([]ProbeRow, error) {
	const scale, burst = 20, 60
	o, err := newOracle(42, scenario.HotTableGens(len(weightedBurstQueries), scale))
	if err != nil {
		return nil, err
	}
	build := scenario.ReplicatedFederations(scenario.ReplicatedOptions{Scale: scale, Seed: 42})
	var out []ProbeRow
	for _, arm := range weightedArms {
		m, err := runWeightedBurst(build, arm.routing, burst, o)
		if err != nil {
			return nil, err
		}
		out = append(out, m.row(name, arm.policy))
	}
	return out, nil
}

// admissionProbe is the overload burst on the paper federation (scale 100,
// seed 7): four interactive QT4 statements alone, then again inside a
// ten-statement burst at twice a global cap of five, where batch holds one
// slot, admits the two light QT4 statements and sheds the four QT1 statements
// whose estimate exceeds its cost hold.
func admissionProbe(name string) ([]ProbeRow, error) {
	const scale, seed = 100, 7
	o, err := newOracle(seed, storage.SampleSchema(scale))
	if err != nil {
		return nil, err
	}
	qt1, err := workload.TypeByName("QT1")
	if err != nil {
		return nil, err
	}
	qt4, err := workload.TypeByName("QT4")
	if err != nil {
		return nil, err
	}
	interactive := workload.Instances(qt4, 4)
	lightBatch := workload.Instances(qt4, 6)[4:6]
	heavyBatch := workload.Instances(qt1, 4)
	build := func() (*scenario.Scenario, error) {
		return scenario.BuildThreeServer(scenario.Options{Scale: scale, Seed: seed})
	}

	base, err := build()
	if err != nil {
		return nil, err
	}
	alone, err := measure(base, o, interactive, false)
	if err != nil {
		return nil, err
	}

	sc, err := build()
	if err != nil {
		return nil, err
	}
	adm := passThrough(sc)
	maxLight, minHeavy := 0.0, math.Inf(1)
	for _, q := range lightBatch {
		gp, err := sc.II.Compile(q)
		if err != nil {
			return nil, err
		}
		maxLight = math.Max(maxLight, gp.TotalEstMS)
	}
	for _, q := range heavyBatch {
		gp, err := sc.II.Compile(q)
		if err != nil {
			return nil, err
		}
		minHeavy = math.Min(minHeavy, gp.TotalEstMS)
	}
	adm.SetPolicy(admission.Policy{
		MaxConcurrent: 5,
		Batch:         admission.ClassConfig{MaxConcurrent: 1, HoldCostMS: (maxLight + minHeavy) / 2, QueueDeadline: 60000},
	})

	type submission struct {
		sql, class string
		res        *integrator.QueryResult
		err        error
	}
	var burst []*submission
	for _, q := range interactive {
		burst = append(burst, &submission{sql: q, class: admission.ClassInteractive})
	}
	for _, q := range append(append([]string(nil), lightBatch...), heavyBatch...) {
		burst = append(burst, &submission{sql: q, class: admission.ClassBatch})
	}
	m := newMeter(sc, adm, o)
	var wg sync.WaitGroup
	for _, s := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.res, s.err = sc.II.QueryContext(admission.WithClass(context.Background(), s.class), s.sql)
		}()
	}
	wg.Wait()
	// The row measures the interactive statements, in submission order. Which
	// light batch statement takes the batch slot first, and so how long the
	// other queues, is up to the goroutine scheduler; the batch statements are
	// the row's load, counted in its admitted, shed and executions.
	for _, s := range burst {
		var err error
		switch {
		case s.class == admission.ClassInteractive:
			err = m.add(s.sql, s.res, s.err)
		case s.err == nil:
			err = o.check(s.sql, s.res.Rel)
		case !errors.Is(s.err, admission.ErrAdmissionRejected):
			err = fmt.Errorf("%s: %w", s.sql, s.err)
		}
		if err != nil {
			return nil, err
		}
	}
	return []ProbeRow{alone.row(name, "interactive alone"), m.row(name, "interactive in burst")}, nil
}

// ---- Layouts for the items that need one ----

// splitJoin hosts orders and customer on S1, lineitem and parts on S2: every
// orders–lineitem join crosses sources.
var splitJoin = map[string][]string{"orders": {"S1"}, "customer": {"S1"}, "lineitem": {"S2"}, "parts": {"S2"}}

// layoutConfig is one row of a layout probe: its statements and what to set
// on the federation first.
type layoutConfig struct {
	name  string
	setup func(*scenario.Scenario)
	stmts []string
}

// layoutProbe measures each configuration's statements in the steady state on
// a fresh two-server federation over the sample schema: S1 and S2 are
// midrange boxes behind the canned 5 ms, 2 000 KB/s LAN unless links names
// another link, and each table is generated on the servers hosts lists for it.
func layoutProbe(name string, seed int64, scale int, hosts map[string][]string, links map[string]network.LinkConfig, configs []layoutConfig) ([]ProbeRow, error) {
	o, err := newOracle(seed, storage.SampleSchema(scale))
	if err != nil {
		return nil, err
	}
	var out []ProbeRow
	for _, c := range configs {
		a := scenario.NewAssembly(seed)
		for _, id := range []string{"S1", "S2"} {
			link, ok := links[id]
			if !ok {
				link = network.LinkConfig{LatencyMS: 5, BandwidthKBps: 2000}
			}
			if err := a.AddServer(remote.ProfileS2(id), link, false); err != nil {
				return nil, err
			}
		}
		for _, g := range storage.SampleSchema(scale) {
			if err := a.Replicate(g, hosts[g.Name]...); err != nil {
				return nil, err
			}
		}
		sc, err := a.Build()
		if err != nil {
			return nil, err
		}
		if c.setup != nil {
			c.setup(sc)
		}
		m, err := measure(sc, o, c.stmts, true)
		if err != nil {
			return nil, err
		}
		out = append(out, m.row(name, c.name))
	}
	return out, nil
}

// rowWire selects the row or the columnar engine, on the row wire, on every
// server and at the integrator.
func rowWire(vectorized bool) func(*scenario.Scenario) {
	return func(sc *scenario.Scenario) {
		for _, srv := range sc.Servers {
			srv.SetVectorized(vectorized)
			srv.SetColumnarWire(false)
		}
		sc.II.SetVectorized(vectorized)
	}
}

// slowLinkProbe puts lineitem, the big side, on S1 behind a 20 ms, 50 KB/s
// link that dominates its remote scan, and the small tables on S2 behind the
// LAN (scale 10, seed 7). The scan is the streamed end-to-end query, once per
// engine arm on the row wire (the arms' clocks differ on purpose: the columnar
// merge runs as batches arrive); the join pairs a selective small side with
// the whole big side.
func slowLinkProbe(name string) ([]ProbeRow, error) {
	const scale, seed = 10, 7
	const scan = "SELECT l.l_orderkey, l.l_price FROM lineitem AS l WHERE l.l_price > 10"
	hosts := map[string][]string{"lineitem": {"S1"}, "orders": {"S2"}, "customer": {"S2"}, "parts": {"S2"}}
	slow := map[string]network.LinkConfig{"S1": {LatencyMS: 20, BandwidthKBps: 50}}
	return layoutProbe(name, seed, scale, hosts, slow, []layoutConfig{
		{"scan row", rowWire(false), []string{scan}},
		{"scan vectorized", rowWire(true), []string{scan}},
		{"join", nil, []string{
			"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9900 GROUP BY o.o_priority",
		}},
	})
}

// joinLimitProbe is a cross-source join under a LIMIT with no ORDER BY: the
// merge could stop pulling, and cancel the fragments, once the limit is met.
func joinLimitProbe(name string) ([]ProbeRow, error) {
	const scale, seed = 20, 42
	return layoutProbe(name, seed, scale, splitJoin, nil, []layoutConfig{
		{"limit", nil, []string{
			"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey LIMIT 5",
			"SELECT o.o_id, o.o_amount, l.l_qty FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_priority = 1 LIMIT 20",
		}},
	})
}

// adversarialFromProbe joins three tables on two sources, orders and lineitem
// co-located on S1 and customer on S2, once with the co-located pair split
// apart in FROM and once with it adjacent. The answers are the same.
func adversarialFromProbe(name string) ([]ProbeRow, error) {
	const scale, seed = 20, 42
	hosts := map[string][]string{"orders": {"S1"}, "lineitem": {"S1"}, "customer": {"S2"}, "parts": {"S2"}}
	return layoutProbe(name, seed, scale, hosts, nil, []layoutConfig{
		{"split", nil, []string{
			"SELECT COUNT(*), SUM(l.l_price) FROM orders AS o JOIN customer AS c ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE o.o_amount > 9000",
		}},
		{"adjacent", nil, []string{
			"SELECT COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON l.l_orderkey = o.o_id JOIN customer AS c ON o.o_custkey = c.c_id WHERE o.o_amount > 9000",
		}},
	})
}

// blockingJoinProbe is GROUP BY and ORDER BY over cross-source joins: the
// merge can emit nothing before its last input arrives.
func blockingJoinProbe(name string) ([]ProbeRow, error) {
	const scale, seed = 20, 42
	return layoutProbe(name, seed, scale, splitJoin, nil, []layoutConfig{
		{"blocking", nil, []string{
			"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey GROUP BY o.o_priority ORDER BY o.o_priority",
			"SELECT c.c_segment, COUNT(*), AVG(l.l_qty) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id GROUP BY c.c_segment ORDER BY c.c_segment",
			"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 3 ORDER BY l.l_price DESC LIMIT 10",
		}},
	})
}
