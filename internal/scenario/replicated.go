package scenario

import (
	"fmt"

	"repro/internal/remote"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// ReplicatedOptions configures BuildReplicated, the replica-routing hotspot
// scenario: N uniform servers, every sample table fully replicated on all of
// them, query-induced load (servers heat up under their own traffic) and a
// buffer-pool residency model (repeatedly hitting the same table on the same
// server gets cheaper; blindly spraying tables across servers keeps every
// pool cold). This is the setting where cache-aware weighted routing should
// beat blind round-robin on tail latency while load awareness keeps the
// servers balanced.
type ReplicatedOptions struct {
	// Servers is the replica count (default 3, IDs S1..SN).
	Servers int
	// Scale divides the sample table sizes (default 1).
	Scale int
	// Seed drives deterministic data generation; replicas share it.
	Seed int64
}

// hotTables is how many identical large single-column-aggregate targets
// (hot1..hotN) the scenario adds — deliberately more tables than one buffer
// pool holds, so replica affinity is a real trade-off.
const hotTables = 4

// replicaProfile is the hotspot replicas' configuration. The hardware is a
// commodity box with slow disks and generous memory, where a buffer-pool hit
// is the difference between milliseconds and tens of milliseconds (the stock
// profiles are CPU-bound at small scales, which would hide the cache signal
// entirely). The induced load is moderate, so concentration is punished
// without pegging every server at the load clamp.
func replicaProfile(id string) remote.Config {
	return remote.Config{
		ID: id,
		Hardware: remote.HardwareProfile{
			CPUOpsPerMS:      20000,
			IOPagesPerMS:     3,
			CachedPagesPerMS: 2000,
			CacheMissFrac:    0.05,
			FixedOverheadMS:  1,
		},
		Contention:  remote.ContentionProfile{CPU: 0.3, IO: 0.3, BufferChurn: 0.05, QueueAmp: 0.4},
		InducedLoad: remote.InducedLoadProfile{WindowMS: 1000, Gain: 4},
		Cache:       remote.CacheProfile{ColdMissFrac: 0.7, WarmRate: 0.5, CoolRate: 0.05, PoolTables: 1.5},
	}
}

// HotTableGens returns the scenario's hot-table generators (hot1..hotN).
func HotTableGens(n, scale int) []storage.TableGen {
	rows := 100000 / scale
	if rows < 10 {
		rows = 10
	}
	gens := make([]storage.TableGen, n)
	for i := range gens {
		name := fmt.Sprintf("hot%d", i+1)
		gens[i] = storage.TableGen{
			Name: name,
			Rows: rows,
			Columns: []storage.ColumnGen{
				{Name: "h_id", Type: sqltypes.KindInt, Gen: storage.SeqInt()},
				{Name: "h_val", Type: sqltypes.KindFloat, Gen: storage.UniformFloat(0, 10000)},
				{Name: "h_grp", Type: sqltypes.KindInt, Gen: storage.UniformInt(100)},
			},
			Indexes: []storage.IndexGen{
				{Name: name + "_pk", Column: "h_id", Kind: storage.IndexSorted},
			},
		}
	}
	return gens
}

// BuildReplicated assembles the hotspot scenario.
func BuildReplicated(opts ReplicatedOptions) (*Scenario, error) {
	opts.fill()
	return replicated(opts, NewAssembly(opts.Seed))
}

// ReplicatedFederations returns a function that assembles a fresh
// BuildReplicated(opts) federation per call, every one over copies of tables
// generated once (see ThreeServerFederations).
func ReplicatedFederations(opts ReplicatedOptions) func() (*Scenario, error) {
	opts.fill()
	return federations(opts.Seed, func(a *Assembly) (*Scenario, error) { return replicated(opts, a) })
}

func (o *ReplicatedOptions) fill() {
	if o.Servers <= 0 {
		o.Servers = 3
	}
	fillScaleSeed(&o.Scale, &o.Seed)
}

func replicated(opts ReplicatedOptions, a *Assembly) (*Scenario, error) {
	ids := serverIDs(opts.Servers)
	for _, id := range ids {
		if err := a.AddServer(replicaProfile(id), lan(5), false); err != nil {
			return nil, err
		}
	}
	for _, g := range append(storage.SampleSchema(opts.Scale), HotTableGens(hotTables, opts.Scale)...) {
		if err := a.Replicate(g, ids...); err != nil {
			return nil, err
		}
	}
	return a.Build()
}
