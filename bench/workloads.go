package main

import (
	"fmt"
	"math/rand"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/workload"
)

// dataSeed generates every table. It is pinned, and -seed drives the query
// lists and the update bursts only: the benchmark is accepted on how little
// each metric moves between seeds, and the table contents alone moved
// virt_resp_ms_p95 by 13-17% (statistics decide remote plans, plans decide
// routing) against 0-3% for the query lists. README.md has the numbers.
const dataSeed = 42

// publishEvery is the fixed query count between forced recalibrations. No
// wall-clock daemon runs (DisableDaemons), so QCC's state after N queries is
// a function of the inputs alone.
const publishEvery = 8

// spec is one benchmark workload: a federation, its engine flags, a seeded
// list of distinct queries replayed for a fixed number of passes, and what
// happens between passes. README.md records why each one exists.
type spec struct {
	name   string
	passes int
	// scale divides the sample schema's table sizes; the oracle is built at
	// the same scale.
	scale int
	// churn marks a workload whose answers change between passes (writes
	// beside reads): per-pass answer checksums cannot be pinned, so the
	// final pass is compared in full against the oracle instead.
	churn bool
	qcc   fedqcc.QCCOptions
	// columnar switches the federation to the vectorized engine and the
	// columnar wire protocol (ROADMAP item 2a's "only production path").
	columnar bool
	build    func(scale int) (*fedqcc.Federation, error)
	// probe builds the same federation as bare layer handles for the traced
	// run's stage-by-stage probes.
	probe func(scale int) (*scenario.Scenario, error)
	// queries builds the distinct query list from the seed. Literals are
	// windows of fixed width at seeded positions, so a different seed asks
	// different questions of about the same size.
	queries func(r *rand.Rand) []string
	// prePass runs before every timed pass, outside every measurement
	// window.
	prePass func(e *env, pass int) error
}

// env is one started workload: the federation under test, its calibrator
// and the single-site oracle holding the same data.
type env struct {
	spec    *spec
	seed    int64
	fed     *fedqcc.Federation
	cal     *fedqcc.Calibrator
	queries []string
	oracle  *oracle
}

// start builds the federation and applies the workload's flags and QCC
// options: everything setup_s times except the cold pass.
func (s *spec) start(cfg runConfig, queries []string) (*env, error) {
	fed, err := s.build(cfg.scale(s))
	if err != nil {
		return nil, fmt.Errorf("%s: building federation: %w", s.name, err)
	}
	if s.columnar {
		fed.SetVectorized(true)
		fed.SetColumnarWire(true)
	}
	opts := s.qcc
	opts.DisableDaemons = true
	return &env{spec: s, seed: cfg.seed, fed: fed, cal: fed.EnableQCC(opts), queries: queries}, nil
}

var specs = []*spec{paperMix, adhocCold, shipCols, xjoinChurn}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have paper_mix, adhoc_cold, ship_cols, xjoin_churn)", name)
}

func shuffled(r *rand.Rand, qs []string) []string {
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// paperMix is the paper's 5.3 experiment: QT1-QT4 x 10 instances under the
// eight Table-1 load phases. The instances are the paper's; the seed
// decides their order.
var paperMix = &spec{
	name:   "paper_mix",
	passes: 32,
	scale:  10,
	build: func(scale int) (*fedqcc.Federation, error) {
		return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: scale, Seed: dataSeed})
	},
	probe: func(scale int) (*scenario.Scenario, error) {
		return scenario.BuildThreeServer(scenario.Options{Scale: scale, Seed: dataSeed})
	},
	queries: func(r *rand.Rand) []string {
		items := workload.UniformMix(10)
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = it.SQL
		}
		return shuffled(r, out)
	},
	prePass: func(e *env, pass int) error {
		phases := workload.Phases()
		ph := phases[pass%len(phases)]
		for _, id := range []string{"S1", "S2", "S3"} {
			h, err := e.fed.Server(id)
			if err != nil {
				return err
			}
			h.SetLoad(ph.LoadLevel(id))
		}
		return nil
	},
}

// adhocStream seeds experiment.RandomQuery. The 100 statements are the same
// on every seed and the seed decides their order: drawn per seed, the mix of
// shapes and selectivities moved wire_bytes_per_query by 39% between seeds.
const adhocStream = 1

// adhocCold replays 100 distinct ad-hoc statements over tiny tables with
// every compile cache dropped before each pass.
var adhocCold = &spec{
	name:   "adhoc_cold",
	passes: 32,
	scale:  50,
	build: func(scale int) (*fedqcc.Federation, error) {
		return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: scale, Seed: dataSeed})
	},
	probe: func(scale int) (*scenario.Scenario, error) {
		return scenario.BuildThreeServer(scenario.Options{Scale: scale, Seed: dataSeed})
	},
	queries: func(r *rand.Rand) []string {
		gen := rand.New(rand.NewSource(adhocStream))
		seen := map[string]bool{}
		var out []string
		for len(out) < 100 {
			if q := experiment.RandomQuery(gen); !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
		return shuffled(r, out)
	},
	prePass: func(e *env, pass int) error {
		e.fed.ResetCompileCaches()
		return nil
	},
}

// shipCols is a 4-shard scatter-gather on the vectorized engine and the
// columnar wire: 6 templates x 4 seeded windows.
var shipCols = &spec{
	name:     "ship_cols",
	passes:   64,
	scale:    4,
	columnar: true,
	build: func(scale int) (*fedqcc.Federation, error) {
		return fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 4, Scale: scale, Seed: dataSeed})
	},
	probe: func(scale int) (*scenario.Scenario, error) {
		return scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: scale, Seed: dataSeed})
	},
	queries: func(r *rand.Rand) []string {
		const keys = 100000 / 4 // l_orderkey and o_id range at Scale 4
		var out []string
		for len(out) < 24 {
			price, qty, key, amount := 1+r.Intn(100), r.Intn(46), r.Intn(keys-1500), r.Intn(5000)
			out = appendDistinct(out,
				// Partial aggregates pushed into every shard; 16 state rows ship.
				fmt.Sprintf("SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem WHERE l_price BETWEEN %d AND %d GROUP BY l_tag", price, price+800),
				// 10% of the rows, three integer columns.
				fmt.Sprintf("SELECT l_id, l_orderkey, l_qty FROM lineitem WHERE l_qty BETWEEN %d AND %d", qty, qty+4),
				// 10% of the rows, all five columns.
				fmt.Sprintf("SELECT l_id, l_orderkey, l_qty, l_price, l_tag FROM lineitem WHERE l_price BETWEEN %d AND %d", 8*price, 8*price+100),
				// Pruned to one shard.
				fmt.Sprintf("SELECT l_id, l_qty, l_price FROM lineitem WHERE l_orderkey = %d", key),
				// Hash sharding cannot prune a range: all four shards, sorted at the II.
				fmt.Sprintf("SELECT l_id, l_orderkey, l_price FROM lineitem WHERE l_orderkey BETWEEN %d AND %d ORDER BY l_id", key, key+1500),
				// Gather join: every lineitem shard ships whole, orders filters to half.
				fmt.Sprintf("SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN %d AND %d GROUP BY o.o_priority ORDER BY o.o_priority", amount, amount+5000),
			)
		}
		return out
	},
}

// xjoinChurn joins across source groups at the II over the row wire with
// replica rotation, while update bursts rewrite orders before every pass:
// 4 templates x 8 seeded windows.
var xjoinChurn = &spec{
	name:   "xjoin_churn",
	passes: 32,
	scale:  10,
	churn:  true,
	qcc:    fedqcc.QCCOptions{LoadBalance: fedqcc.LBFragment, LBCloseness: 0.5},
	build: func(scale int) (*fedqcc.Federation, error) {
		return fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: scale, Seed: dataSeed})
	},
	probe: func(scale int) (*scenario.Scenario, error) {
		return scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: scale, Seed: dataSeed})
	},
	queries: func(r *rand.Rand) []string {
		var out []string
		for len(out) < 32 {
			narrow, mid, wide := r.Intn(9500), r.Intn(8000), r.Intn(5000) // o_amount window starts
			qty, discount := r.Intn(41), 0.15*r.Float64()
			out = appendDistinct(out,
				fmt.Sprintf("SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN %d AND %d AND l.l_qty BETWEEN %d AND %d", narrow, narrow+500, qty, qty+9),
				fmt.Sprintf("SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN %d AND %d GROUP BY o.o_priority ORDER BY o.o_priority", mid, mid+2000),
				fmt.Sprintf("SELECT c.c_segment, COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_discount BETWEEN %.4f AND %.4f GROUP BY c.c_segment ORDER BY c.c_segment", discount, discount+0.05),
				fmt.Sprintf("SELECT COUNT(*), AVG(o.o_amount), MAX(o.o_qty) FROM orders AS o WHERE o.o_amount BETWEEN %d AND %d", wide, wide+5000),
			)
		}
		return out
	},
	prePass: func(e *env, pass int) error {
		// The same seeded burst on the origin, its replica and the oracle:
		// all three copies of orders stay identical and keep their size.
		burstSeed := e.seed + int64(pass)
		for _, id := range []string{"S1", "R1"} {
			h, err := e.fed.Server(id)
			if err != nil {
				return err
			}
			if err := h.ApplyUpdateBurst("orders", 20, burstSeed); err != nil {
				return err
			}
		}
		return e.oracle.srv.ApplyUpdateBurst("orders", 20, burstSeed)
	},
}

// appendDistinct appends one instance of every template unless any of them
// repeats a statement already in the list.
func appendDistinct(list []string, instance ...string) []string {
	for _, q := range instance {
		for _, have := range list {
			if q == have {
				return list
			}
		}
	}
	return append(list, instance...)
}

// oracle is a single site holding every table of the sample schema,
// generated from the same seed and scale as the federation under test and
// queried with the reference plan builder (no federation, no network, no
// planner choices).
type oracle struct {
	srv *remote.Server
	sc  *scenario.Scenario
}

func newOracle(scale int) (*oracle, error) {
	srv := remote.NewServer(remote.ProfileS1("oracle"))
	for _, g := range storage.SampleSchema(scale) {
		g.Indexes = nil // GroundTruth only scans
		tab, err := g.Generate(dataSeed)
		if err != nil {
			return nil, fmt.Errorf("oracle: generating %s: %w", g.Name, err)
		}
		srv.AddTable(tab)
	}
	return &oracle{srv: srv, sc: &scenario.Scenario{Servers: map[string]*remote.Server{"oracle": srv}}}, nil
}

func (o *oracle) answer(sql string) (*fedqcc.Relation, error) {
	return experiment.GroundTruth(o.sc, "oracle", sql)
}
