// Package scenario assembles complete federations for experiments, examples
// and tests: remote servers with generated data, the network topology, the
// global catalog with nicknames and replicas, the meta-wrapper and the
// integrator — the paper's evaluation scenario of "one II server and three
// remote servers, each hosting a DBMS", with tables "replicated and
// distributed on the three remote servers such that each server is involved
// in a diverse set of queries" (§5).
package scenario

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// Scenario is a fully-wired federation.
type Scenario struct {
	Clock   *simclock.Clock
	Servers map[string]*remote.Server
	Topo    *network.Topology
	Catalog *catalog.Catalog
	MW      *metawrapper.MetaWrapper
	IINode  *remote.Server
	II      *integrator.II
}

// Options configures BuildThreeServer.
type Options struct {
	// Scale divides the paper's table sizes (1 = full 100k/1k rows).
	// Experiments use small scales for speed; the shapes are scale-free.
	Scale int
	// Seed drives the deterministic data generation; replicas share it.
	Seed int64
	// Latencies maps server IDs to one-way link latency in ms. The default
	// is a symmetric LAN (5ms each), matching the paper's single-lab
	// testbed; experiments on network dynamics vary congestion instead.
	Latencies map[string]float64
	// Exclusive maps table names to the single server that hosts them;
	// unlisted tables are fully replicated. Used by placement experiments.
	Exclusive map[string]string
	// InducedLoad, when set, makes servers heat up under their own query
	// traffic (hot-spotting) — required for load-distribution experiments
	// where routing choices feed back into response times.
	InducedLoad remote.InducedLoadProfile
	// Uniform makes all three servers mid-range clones: true equivalent
	// data sources, the §4 load-distribution setting.
	Uniform bool
}

func (o *Options) fill() {
	fillScaleSeed(&o.Scale, &o.Seed)
	if o.Latencies == nil {
		o.Latencies = map[string]float64{"S1": 5, "S2": 5, "S3": 5}
	}
}

// fillScaleSeed applies the defaults every canned scenario shares: full paper
// scale and seed 42.
func fillScaleSeed(scale *int, seed *int64) {
	if *scale < 1 {
		*scale = 1
	}
	if *seed == 0 {
		*seed = 42
	}
}

// lan is the link every canned scenario uses: the testbed's 2000 KB/s LAN at
// the given one-way latency.
func lan(latencyMS float64) network.LinkConfig {
	return network.LinkConfig{LatencyMS: latencyMS, BandwidthKBps: 2000}
}

// serverIDs names n servers S1..Sn.
func serverIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("S%d", i+1)
	}
	return ids
}

// BuildThreeServer assembles the paper's evaluation federation: servers S1,
// S2, S3 with the full sample schema replicated on all three (every server
// can answer every query type, making them equivalent data sources), plus
// an II node.
func BuildThreeServer(opts Options) (*Scenario, error) {
	opts.fill()
	return threeServer(opts, NewAssembly(opts.Seed))
}

// ThreeServerFederations returns a function that assembles a fresh
// BuildThreeServer(opts) federation per call. The tables are generated once,
// by the first call; every federation holds copies of them that share the
// generated rows, and updates in one never reach another.
func ThreeServerFederations(opts Options) func() (*Scenario, error) {
	opts.fill()
	return federations(opts.Seed, func(a *Assembly) (*Scenario, error) { return threeServer(opts, a) })
}

func threeServer(opts Options, a *Assembly) (*Scenario, error) {
	ids := serverIDs(3)
	profiles := []func(string) remote.Config{remote.ProfileS1, remote.ProfileS2, remote.ProfileS3}
	for i, id := range ids {
		profile := profiles[i]
		if opts.Uniform {
			profile = remote.ProfileS2
		}
		cfg := profile(id)
		cfg.InducedLoad = opts.InducedLoad
		if err := a.AddServer(cfg, lan(opts.Latencies[id]), false); err != nil {
			return nil, err
		}
	}
	for _, g := range storage.SampleSchema(opts.Scale) {
		hosts := ids
		if only, ok := opts.Exclusive[g.Name]; ok {
			hosts = []string{only}
		}
		if err := a.Replicate(g, hosts...); err != nil {
			return nil, err
		}
	}
	return a.Build()
}

// ReplicateTable copies a nickname's data from one server to another and
// registers the new placement in the catalog — applying a QCC placement
// recommendation. The copy (storage.Table.Copy) shares the source's rows and
// carries its indexes.
func ReplicateTable(sc *Scenario, nickname, from, to string) error {
	nick, err := sc.Catalog.Lookup(nickname)
	if err != nil {
		return err
	}
	placement := nick.PlacementOn(from)
	if placement == nil {
		return fmt.Errorf("scenario: %s does not host %q", from, nickname)
	}
	srcSrv, ok := sc.Servers[from]
	if !ok {
		return fmt.Errorf("scenario: unknown server %q", from)
	}
	dstSrv, ok := sc.Servers[to]
	if !ok {
		return fmt.Errorf("scenario: unknown server %q", to)
	}
	src := srcSrv.Table(placement.RemoteTable)
	if src == nil {
		return fmt.Errorf("scenario: table %q missing on %s", placement.RemoteTable, from)
	}
	if dstSrv.Table(placement.RemoteTable) != nil {
		return fmt.Errorf("scenario: %s already hosts %q", to, placement.RemoteTable)
	}
	dstSrv.AddTable(src.Copy())
	return sc.Catalog.AddPlacement(nickname, catalog.Placement{
		ServerID:    to,
		RemoteTable: placement.RemoteTable,
		Replica:     true,
	})
}

// ReplicaOptions configures BuildReplicaPair, the §4 load-distribution
// scenario: origin servers S1 (hosting table A) and S2 (hosting table B)
// plus replicas R1 of S1 and R2 of S2. A cross-source join query then has
// 2×2 server combinations and — with two plans per origin fragment — the
// paper's nine global plans.
type ReplicaOptions struct {
	Scale int
	Seed  int64
}

// BuildReplicaPair assembles the §4 scenario.
func BuildReplicaPair(opts ReplicaOptions) (*Scenario, error) {
	fillScaleSeed(&opts.Scale, &opts.Seed)
	a := NewAssembly(opts.Seed)
	for _, s := range []struct {
		cfg       remote.Config
		latencyMS float64
	}{
		{remote.ProfileS1("S1"), 8},
		{remote.ProfileS2("R1"), 10},
		{remote.ProfileS2("S2"), 12},
		{remote.ProfileS1("R2"), 9},
	} {
		if err := a.AddServer(s.cfg, lan(s.latencyMS), false); err != nil {
			return nil, err
		}
	}
	for _, g := range storage.SampleSchema(opts.Scale) {
		hosts := []string{"S2", "R2"}
		if g.Name == "orders" || g.Name == "customer" {
			hosts = []string{"S1", "R1"}
		}
		if err := a.Replicate(g, hosts...); err != nil {
			return nil, err
		}
	}
	return a.Build()
}
