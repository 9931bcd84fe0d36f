package fedqcc

import (
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

func parseSQL(sql string) (*sqlparser.SelectStmt, error) { return sqlparser.Parse(sql) }

// ServerProfile names a hardware/contention preset for AddServer.
type ServerProfile int

const (
	// ProfileModest is an older machine: modest CPU, spinning disks, small
	// memory (the paper's S1).
	ProfileModest ServerProfile = iota
	// ProfileMidrange is a mid-range machine (S2).
	ProfileMidrange
	// ProfilePowerful is a fast machine with a large but churn-prone buffer
	// pool (S3).
	ProfilePowerful
)

func profileConfig(p ServerProfile, id string) remote.Config {
	switch p {
	case ProfilePowerful:
		return remote.ProfileS3(id)
	case ProfileMidrange:
		return remote.ProfileS2(id)
	default:
		return remote.ProfileS1(id)
	}
}

// LinkSpec describes the network path to a server.
type LinkSpec struct {
	// LatencyMS is the one-way latency (default 5).
	LatencyMS float64
	// BandwidthKBps is the throughput (default 2000; 0 keeps the default,
	// negative means unlimited).
	BandwidthKBps float64
}

// TableSpec describes a synthetic table for AddGeneratedTable. Use the
// workload tables via StandardSchema for the paper's schema.
type TableSpec = storage.TableGen

// StandardSchema returns the paper's sample schema generators at the given
// scale divisor (1 = 100k-row large tables).
func StandardSchema(scale int) []TableSpec { return storage.SampleSchema(scale) }

// Builder assembles arbitrary federations. Its methods chain; the first one
// that fails makes the rest no-ops and Build reports its error.
type Builder struct {
	asm *scenario.Assembly
	err error
}

// NewBuilder starts a federation definition. Seed drives data generation;
// servers generating the same table with the same seed hold identical
// replicas.
func NewBuilder(seed int64) *Builder {
	if seed == 0 {
		seed = 42
	}
	return &Builder{asm: scenario.NewAssembly(seed)}
}

// try runs one assembly step unless an earlier one already failed.
func (b *Builder) try(step func() error) *Builder {
	if b.err == nil {
		b.err = step()
	}
	return b
}

// AddServer registers a remote relational server with the given profile and
// link.
func (b *Builder) AddServer(id string, profile ServerProfile, link LinkSpec) *Builder {
	return b.addServer(id, profile, link, false)
}

// AddFileServer registers a file-wrapped source: it can be scanned but
// provides no cost estimates, exercising QCC's seeding path.
func (b *Builder) AddFileServer(id string, profile ServerProfile, link LinkSpec) *Builder {
	return b.addServer(id, profile, link, true)
}

func (b *Builder) addServer(id string, profile ServerProfile, link LinkSpec, file bool) *Builder {
	cfg := network.LinkConfig{LatencyMS: link.LatencyMS, BandwidthKBps: link.BandwidthKBps}
	if cfg.LatencyMS == 0 {
		cfg.LatencyMS = 5
	}
	if cfg.BandwidthKBps == 0 {
		cfg.BandwidthKBps = 2000
	}
	if cfg.BandwidthKBps < 0 {
		cfg.BandwidthKBps = 0 // unlimited
	}
	return b.try(func() error { return b.asm.AddServer(profileConfig(profile, id), cfg, file) })
}

// AddGeneratedTable generates the table on the named server using the
// builder's seed. A table generated on several servers becomes one nickname
// hosted by all of them.
func (b *Builder) AddGeneratedTable(serverID string, spec TableSpec) *Builder {
	return b.try(func() error { return b.asm.Generate(spec, serverID) })
}

// AddShardedTable generates the table once with the builder's seed and
// hash-partitions its rows on shardColumn across the named servers: shard i
// lands on servers[i] as the physical table <name>__s<i>, registered whole as
// one sharded nickname. With a single server the physical table keeps the
// plain name and the nickname registers unsharded — bit-identical to
// AddGeneratedTable on that server.
func (b *Builder) AddShardedTable(spec TableSpec, shardColumn string, servers ...string) *Builder {
	return b.try(func() error {
		return b.asm.Shard(spec, &catalog.ShardSpec{Column: shardColumn}, servers...)
	})
}

// AddReplicatedTable places an identical replica of the table, generated with
// the builder's seed, on every named server (the first is the origin) and
// registers it with exactly the declared server order. Pair it with the
// LBWeighted routing mode so fragments over the table route to the replica
// scoring best. With a single server it degrades to AddGeneratedTable on that
// server.
func (b *Builder) AddReplicatedTable(spec TableSpec, servers ...string) *Builder {
	return b.try(func() error { return b.asm.Replicate(spec, servers...) })
}

// AddCSVTable loads a table from CSV (typed header "name:KIND", see
// storage.ReadCSV) onto the named server.
func (b *Builder) AddCSVTable(serverID, tableName string, r io.Reader) *Builder {
	return b.try(func() error {
		tab, err := storage.ReadCSV(tableName, r)
		if err != nil {
			return err
		}
		return b.asm.AddTable(serverID, tab)
	})
}

// AddIndex creates an index on a previously-added table. Sorted indexes
// serve range probes; hash indexes serve equality only.
func (b *Builder) AddIndex(serverID, table, indexName, column string, sorted bool) *Builder {
	return b.try(func() error {
		tab, err := b.asm.Table(serverID, table)
		if err != nil {
			return err
		}
		kind := storage.IndexHash
		if sorted {
			kind = storage.IndexSorted
		}
		_, err = tab.CreateIndex(indexName, column, kind)
		return err
	})
}

// Build wires the meta-wrapper and the integrator over the declared servers
// and tables.
func (b *Builder) Build() (*Federation, error) {
	if b.err != nil {
		return nil, b.err
	}
	sc, err := b.asm.Build()
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// ExportCSV writes a server's table as CSV with a typed header.
func (f *Federation) ExportCSV(serverID, table string, w io.Writer) error {
	srv, ok := f.servers[serverID]
	if !ok {
		return fmt.Errorf("fedqcc: unknown server %q", serverID)
	}
	tab := srv.Table(table)
	if tab == nil {
		return fmt.Errorf("fedqcc: server %q has no table %q", serverID, table)
	}
	return tab.WriteCSV(w)
}

// Schema returns the registered schema of a nickname.
func (f *Federation) Schema(nickname string) (*sqltypes.Schema, error) {
	n, err := f.catalog.Lookup(nickname)
	if err != nil {
		return nil, err
	}
	return n.Schema, nil
}

// Nicknames lists the registered nicknames.
func (f *Federation) Nicknames() []string { return f.catalog.Names() }

// PlacementsOf lists the servers hosting a nickname.
func (f *Federation) PlacementsOf(nickname string) ([]string, error) {
	n, err := f.catalog.Lookup(nickname)
	if err != nil {
		return nil, err
	}
	return n.Servers(), nil
}
