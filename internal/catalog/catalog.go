// Package catalog implements the federation's global catalog: nicknames
// (the local names under which remote tables are registered at the
// integrator, per DB2 II) with their schemas and placements — which remote
// servers host the table, including replicas. The optimizer's decomposer
// consults the catalog to group query tables into co-located fragments and
// to enumerate equivalent data sources for each fragment.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sqltypes"
)

// Placement locates one copy of a nickname's data.
type Placement struct {
	// ServerID names the remote server.
	ServerID string
	// RemoteTable is the table name at that server.
	RemoteTable string
	// Replica marks placements registered as replicas of an origin server
	// (informational; all placements are equivalent data sources).
	Replica bool
}

// Nickname is one registered remote table.
type Nickname struct {
	// Name is the global name used in federated queries.
	Name string
	// Schema is the registered column layout.
	Schema *sqltypes.Schema
	// Placements lists every server hosting the data, origin first. For
	// sharded nicknames this is the union of shard hosts (used for
	// co-location grouping); per-shard placements live in Shards.
	Placements []Placement
	// Sharding, when non-nil, declares the nickname horizontally
	// partitioned; see shard.go.
	Sharding *ShardSpec
	// Shards holds the per-shard placements, indexed by shard.
	Shards []Shard
}

// Servers returns the IDs of all hosting servers, in registration order.
func (n *Nickname) Servers() []string {
	out := make([]string, len(n.Placements))
	for i, p := range n.Placements {
		out[i] = p.ServerID
	}
	return out
}

// PlacementOn returns the placement on the given server, or nil.
func (n *Nickname) PlacementOn(serverID string) *Placement {
	for i := range n.Placements {
		if n.Placements[i].ServerID == serverID {
			return &n.Placements[i]
		}
	}
	return nil
}

// Catalog is the integrator's nickname registry. It is safe for concurrent
// use.
type Catalog struct {
	mu        sync.RWMutex
	nicknames map[string]*Nickname
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{nicknames: map[string]*Nickname{}}
}

// Register adds a nickname. Registering an existing name replaces it.
func (c *Catalog) Register(n *Nickname) error {
	if n.Name == "" {
		return fmt.Errorf("catalog: nickname must have a name")
	}
	if n.Schema == nil || n.Schema.Len() == 0 {
		return fmt.Errorf("catalog: nickname %q must have a schema", n.Name)
	}
	if len(n.Placements) == 0 {
		return fmt.Errorf("catalog: nickname %q must have at least one placement", n.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nicknames[n.Name] = n
	return nil
}

// RegisterReplicated adds a nickname hosted by multiple equivalent physical
// placements at once — partial replication of a whole table fragment. The
// first placement is the origin; the rest are marked as replicas. Duplicate
// servers are rejected. A single placement degrades to a plain Register, so
// replication-off catalogs are shaped exactly like the pre-replication ones.
func (c *Catalog) RegisterReplicated(name string, schema *sqltypes.Schema, placements []Placement) error {
	seen := map[string]bool{}
	for _, p := range placements {
		if seen[p.ServerID] {
			return fmt.Errorf("catalog: nickname %q placed twice on %s", name, p.ServerID)
		}
		seen[p.ServerID] = true
	}
	n := &Nickname{Name: name, Schema: schema, Placements: append([]Placement(nil), placements...)}
	for i := range n.Placements {
		n.Placements[i].Replica = i > 0
	}
	return c.Register(n)
}

// AddPlacement registers an additional replica for an existing nickname.
func (c *Catalog) AddPlacement(name string, p Placement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nicknames[name]
	if !ok {
		return fmt.Errorf("catalog: unknown nickname %q", name)
	}
	if n.PlacementOn(p.ServerID) != nil {
		return fmt.Errorf("catalog: nickname %q already placed on %s", name, p.ServerID)
	}
	n.Placements = append(n.Placements, p)
	return nil
}

// Lookup returns the nickname or an error.
func (c *Catalog) Lookup(name string) (*Nickname, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nicknames[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown nickname %q", name)
	}
	return n, nil
}

// Names lists registered nicknames, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.nicknames))
	for n := range c.nicknames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
