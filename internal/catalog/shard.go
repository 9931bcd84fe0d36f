// Horizontal sharding: a nickname may be backed not by whole-table copies
// but by disjoint horizontal partitions (shards) spread across servers. The
// shard map lives here so the decomposer can prune shards by predicate on
// the shard key and emit per-shard fragments, while unsharded nicknames keep
// the exact pre-sharding representation (Sharding == nil).
package catalog

import (
	"fmt"

	"repro/internal/sqltypes"
)

// ShardMethod selects how the shard key maps rows to shards.
type ShardMethod int

const (
	// ShardHash assigns a row to shard Value.Hash() % N.
	ShardHash ShardMethod = iota
	// ShardRange assigns by ascending split bounds: shard i covers
	// [Bounds[i-1], Bounds[i]); shard 0 is unbounded below, the last shard
	// unbounded above. NULL keys sort first and land in shard 0.
	ShardRange
)

func (m ShardMethod) String() string {
	switch m {
	case ShardHash:
		return "hash"
	case ShardRange:
		return "range"
	}
	return fmt.Sprintf("ShardMethod(%d)", int(m))
}

// ShardSpec describes how a nickname's rows are partitioned.
type ShardSpec struct {
	// Column is the shard key: a column of the nickname's schema.
	Column string
	// Method is hash or range partitioning.
	Method ShardMethod
	// Bounds are the ascending range split points (len = shards-1).
	// Ignored for hash sharding.
	Bounds []sqltypes.Value
}

// Shard is one horizontal partition of a sharded nickname. Each shard may
// itself be replicated across servers, exactly like a whole table.
type Shard struct {
	// Index is the shard's position, 0-based and contiguous.
	Index int
	// Placements lists every server hosting this shard, origin first.
	Placements []Placement
}

// ShardTableName is the conventional remote-table name for shard i of a
// base table.
func ShardTableName(base string, i int) string {
	return fmt.Sprintf("%s__s%d", base, i)
}

// ShardFor returns the shard index the key value belongs to, for n shards.
// Hash uses Value.Hash() (which normalizes integral floats to int bytes, so
// numerically-equal keys agree); NULL hashes like any other value. Range
// places a value in the first shard whose upper bound exceeds it; NULLs
// compare before everything and land in shard 0.
func (s *ShardSpec) ShardFor(v sqltypes.Value, n int) int {
	if n <= 1 {
		return 0
	}
	switch s.Method {
	case ShardRange:
		for i, b := range s.Bounds {
			if i >= n-1 {
				break
			}
			if sqltypes.Compare(v, b) < 0 {
				return i
			}
		}
		return n - 1
	default:
		return int(v.Hash() % uint64(n))
	}
}

// Sharded reports whether the nickname is horizontally partitioned into
// more than one shard. Single-shard registrations behave exactly like plain
// nicknames.
func (n *Nickname) Sharded() bool {
	return n.Sharding != nil && len(n.Shards) > 1
}

// RegisterSharded adds a horizontally partitioned nickname. The shard list
// must be contiguous from index 0 and every shard needs at least one
// placement; range bounds must be strictly ascending non-NULL values with
// len(Bounds) == len(shards)-1. A single shard degrades to a plain
// registration: the nickname's Placements become that shard's placements
// and Sharding is dropped, so every downstream path sees the pre-sharding
// shape bit-for-bit.
func (c *Catalog) RegisterSharded(name string, schema *sqltypes.Schema, spec *ShardSpec, shards []Shard) error {
	if name == "" {
		return fmt.Errorf("catalog: nickname must have a name")
	}
	if schema == nil || schema.Len() == 0 {
		return fmt.Errorf("catalog: nickname %q must have a schema", name)
	}
	if spec == nil {
		return fmt.Errorf("catalog: sharded nickname %q must have a shard spec", name)
	}
	if len(shards) == 0 {
		return fmt.Errorf("catalog: sharded nickname %q must have at least one shard", name)
	}
	keyFound := false
	for i := 0; i < schema.Len(); i++ {
		if schema.Columns[i].Name == spec.Column {
			keyFound = true
			break
		}
	}
	if !keyFound {
		return fmt.Errorf("catalog: shard key %q is not a column of nickname %q", spec.Column, name)
	}
	for i, sh := range shards {
		if sh.Index != i {
			return fmt.Errorf("catalog: nickname %q shard %d has index %d; shards must be contiguous from 0", name, i, sh.Index)
		}
		if len(sh.Placements) == 0 {
			return fmt.Errorf("catalog: nickname %q shard %d must have at least one placement", name, i)
		}
	}
	if spec.Method == ShardRange {
		if len(spec.Bounds) != len(shards)-1 {
			return fmt.Errorf("catalog: nickname %q range sharding needs %d bounds for %d shards, got %d",
				name, len(shards)-1, len(shards), len(spec.Bounds))
		}
		for i, b := range spec.Bounds {
			if b.IsNull() {
				return fmt.Errorf("catalog: nickname %q range bound %d is NULL", name, i)
			}
			if i > 0 && sqltypes.Compare(spec.Bounds[i-1], b) >= 0 {
				return fmt.Errorf("catalog: nickname %q range bounds must be strictly ascending", name)
			}
		}
	}
	if len(shards) == 1 {
		return c.Register(&Nickname{
			Name:       name,
			Schema:     schema,
			Placements: append([]Placement(nil), shards[0].Placements...),
		})
	}
	n := &Nickname{
		Name:     name,
		Schema:   schema,
		Sharding: spec,
		Shards:   make([]Shard, len(shards)),
	}
	for i, sh := range shards {
		n.Shards[i] = Shard{Index: i, Placements: append([]Placement(nil), sh.Placements...)}
	}
	// Placements aggregates the union of shard hosts so placement-based
	// grouping (co-location) keeps working; fragment emission
	// uses the per-shard placements.
	seen := map[string]bool{}
	for _, sh := range n.Shards {
		for _, p := range sh.Placements {
			if !seen[p.ServerID] {
				seen[p.ServerID] = true
				n.Placements = append(n.Placements, Placement{ServerID: p.ServerID, RemoteTable: name, Replica: p.Replica})
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nicknames[name] = n
	return nil
}
