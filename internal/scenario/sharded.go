package scenario

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/remote"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// ShardedOptions configures BuildSharded: the scale-out scenario where the
// LINEITEM-scale table is horizontally partitioned on l_orderkey across N
// uniform servers while the small tables stay fully replicated.
type ShardedOptions struct {
	// Shards is the shard (and server) count; 1 builds a plain unsharded
	// single-server federation — the bit-identity baseline.
	Shards int
	// Scale divides the paper's table sizes (1 = full 100k/1k rows).
	Scale int
	// Seed drives deterministic data generation.
	Seed int64
	// Method picks hash (default) or range sharding on l_orderkey.
	Method catalog.ShardMethod
	// NullKeyFrac makes roughly this fraction of lineitem rows carry a NULL
	// shard key (hash-sharded NULLs land on their hash shard, range-sharded
	// NULLs on shard 0). Zero keeps the standard generator.
	NullKeyFrac float64
}

// BuildSharded assembles an N-server federation with lineitem hash- or
// range-sharded on l_orderkey (shard i on server S<i+1>) and orders,
// customer and parts replicated on every server. With Shards == 1 the
// catalog registration degrades to a plain nickname and the engine takes
// exactly the pre-sharding code paths — that configuration is the identity
// baseline the CI gate compares against.
func BuildSharded(opts ShardedOptions) (*Scenario, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	fillScaleSeed(&opts.Scale, &opts.Seed)
	a := NewAssembly(opts.Seed)
	ids := serverIDs(opts.Shards)
	for _, id := range ids {
		if err := a.AddServer(remote.ProfileS2(id), lan(5), false); err != nil {
			return nil, err
		}
	}
	for _, g := range storage.SampleSchema(opts.Scale) {
		if g.Name != "lineitem" {
			// The small tables replicate everywhere.
			if err := a.Replicate(g, ids...); err != nil {
				return nil, err
			}
			continue
		}
		spec := &catalog.ShardSpec{Column: "l_orderkey", Method: opts.Method}
		if opts.Method == catalog.ShardRange {
			// Even splits of the uniform key domain [0, rows).
			domain := int64(g.Rows)
			for i := 1; i < opts.Shards; i++ {
				spec.Bounds = append(spec.Bounds, sqltypes.NewInt(domain*int64(i)/int64(opts.Shards)))
			}
		}
		if opts.NullKeyFrac > 0 {
			nullSomeKeys(g, spec.Column, opts.NullKeyFrac)
		}
		if err := a.Shard(g, spec, ids...); err != nil {
			return nil, err
		}
	}
	return a.Build()
}

// nullSomeKeys makes the generator emit NULL in the named column for roughly
// frac of the rows.
func nullSomeKeys(g storage.TableGen, column string, frac float64) {
	for ci, c := range g.Columns {
		if c.Name != column {
			continue
		}
		inner := c.Gen
		g.Columns[ci].Gen = func(r *rand.Rand, i int) sqltypes.Value {
			if r.Float64() < frac {
				return sqltypes.Null
			}
			return inner(r, i)
		}
	}
}
