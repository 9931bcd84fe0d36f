package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/wrapper"
)

// Assembly is a federation under construction, and the one place that knows
// how a Scenario is wired. Servers are declared first, then tables are placed
// on them — generated on one host, replicated over several, sharded on a
// column, or handed over already built — and Build adds the meta-wrapper and
// the integrator. The canned scenarios and the public fedqcc.Builder are
// declarations over it.
type Assembly struct {
	// seed drives data generation. A table is generated once per Replicate,
	// and its replicas are copies (storage.Table.Copy): they share its columns
	// and indexes copy-on-write, so an update burst on one replica never
	// reaches another.
	seed int64
	// data, when set, is generated data this assembly shares with others
	// (federations): Generate and Replicate take their tables from it as
	// copies. Shard generates its own, because it only partitions the rows.
	data     *tables
	sc       Scenario
	wrappers []wrapper.Wrapper
	// solo lists, per table name, the hosts that were given the table one
	// server at a time (Generate, AddTable).
	solo map[string][]string
}

// NewAssembly starts an empty federation on a fresh virtual clock.
func NewAssembly(seed int64) *Assembly {
	return &Assembly{
		seed: seed,
		sc: Scenario{
			Clock:   simclock.New(),
			Servers: map[string]*remote.Server{},
			Topo:    network.NewTopology(),
			Catalog: catalog.New(),
		},
		solo: map[string][]string{},
	}
}

// tables is generated data shared by the assemblies of one federations
// function: each table is generated from the seed when first asked for, kept
// as generated, and handed out as copies that share its rows. A table is
// known by its name, which within one declaration names one generator.
type tables struct {
	mu        sync.Mutex
	seed      int64
	generated map[string]*storage.Table
}

func (d *tables) copyOf(gen storage.TableGen) (*storage.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tab, ok := d.generated[gen.Name]
	if !ok {
		var err error
		if tab, err = gen.Generate(d.seed); err != nil {
			return nil, err
		}
		d.generated[gen.Name] = tab
	}
	return tab.Copy(), nil
}

// federations returns a function that runs declare on a fresh assembly per
// call, every one over the same generated data: a study that runs each phase
// on a fresh federation generates its tables once.
func federations(seed int64, declare func(*Assembly) (*Scenario, error)) func() (*Scenario, error) {
	data := &tables{seed: seed, generated: map[string]*storage.Table{}}
	return func() (*Scenario, error) {
		a := NewAssembly(seed)
		a.data = data
		return declare(a)
	}
}

// AddServer declares a remote source and the link to it. A file source can be
// scanned but offers no cost estimates (wrapper.File).
func (a *Assembly) AddServer(cfg remote.Config, link network.LinkConfig, file bool) error {
	if _, dup := a.sc.Servers[cfg.ID]; dup {
		return fmt.Errorf("scenario: duplicate server %q", cfg.ID)
	}
	srv := remote.NewServer(cfg)
	srv.SetClock(a.sc.Clock)
	a.sc.Servers[cfg.ID] = srv
	a.sc.Topo.AddLink(cfg.ID, network.NewLink(link))
	if file {
		a.wrappers = append(a.wrappers, wrapper.NewFile(srv, a.sc.Topo))
	} else {
		a.wrappers = append(a.wrappers, wrapper.NewRelational(srv, a.sc.Topo))
	}
	return nil
}

func (a *Assembly) server(id string) (*remote.Server, error) {
	srv, ok := a.sc.Servers[id]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown server %q", id)
	}
	return srv, nil
}

// Table returns a table already placed on a server.
func (a *Assembly) Table(serverID, table string) (*storage.Table, error) {
	srv, err := a.server(serverID)
	if err != nil {
		return nil, err
	}
	tab := srv.Table(table)
	if tab == nil {
		return nil, fmt.Errorf("scenario: server %q has no table %q", serverID, table)
	}
	return tab, nil
}

// register makes the table a nickname hosted by the given servers, the first
// being the origin and the rest replicas.
func (a *Assembly) register(table string, schema *sqltypes.Schema, hosts []string) error {
	placements := make([]catalog.Placement, len(hosts))
	for i, id := range hosts {
		placements[i] = catalog.Placement{ServerID: id, RemoteTable: table}
	}
	return a.sc.Catalog.RegisterReplicated(table, schema, placements)
}

// AddTable places a table built elsewhere (a CSV load, say) on one server.
// Tables of one name placed a server at a time form one nickname whose hosts
// list in server-ID order, whatever order they were added in.
func (a *Assembly) AddTable(serverID string, tab *storage.Table) error {
	srv, err := a.server(serverID)
	if err != nil {
		return err
	}
	srv.AddTable(tab)
	hosts := append(a.solo[tab.Name()], serverID)
	sort.Strings(hosts)
	a.solo[tab.Name()] = hosts
	return a.register(tab.Name(), a.sc.Servers[hosts[0]].Table(tab.Name()).Schema(), hosts)
}

// generate builds the table from the assembly's seed, or copies it from the
// shared data.
func (a *Assembly) generate(gen storage.TableGen, serverID string) (*storage.Table, error) {
	var tab *storage.Table
	var err error
	if a.data != nil {
		tab, err = a.data.copyOf(gen)
	} else {
		tab, err = gen.Generate(a.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: generating %s on %s: %w", gen.Name, serverID, err)
	}
	return tab, nil
}

// Generate generates the table on one server; see AddTable for how several
// such placements of one table combine.
func (a *Assembly) Generate(gen storage.TableGen, serverID string) error {
	tab, err := a.generate(gen, serverID)
	if err != nil {
		return err
	}
	return a.AddTable(serverID, tab)
}

// Replicate generates the table once, places it on the first named server and
// a copy of it on every other, and registers one nickname over them in
// exactly the declared order.
func (a *Assembly) Replicate(gen storage.TableGen, servers ...string) error {
	if len(servers) == 0 {
		return fmt.Errorf("scenario: replicated table %q needs at least one server", gen.Name)
	}
	var origin *storage.Table
	for i, id := range servers {
		srv, err := a.server(id)
		if err != nil {
			return err
		}
		if i == 0 {
			if origin, err = a.generate(gen, id); err != nil {
				return err
			}
			srv.AddTable(origin)
			continue
		}
		srv.AddTable(origin.Copy())
	}
	return a.register(gen.Name, origin.Schema(), servers)
}

// Shard generates the table once and partitions its rows by spec across the
// named servers: shard i lands on servers[i] as the physical table
// <name>__s<i> with indexes <index>_s<i>, and the whole registers as one
// sharded nickname. A single shard keeps the plain table and index names and
// registers unsharded, so that federation is bit-identical to one that never
// heard of sharding.
func (a *Assembly) Shard(gen storage.TableGen, spec *catalog.ShardSpec, servers ...string) error {
	n := len(servers)
	if n == 0 {
		return fmt.Errorf("scenario: sharded table %q needs at least one server", gen.Name)
	}
	unindexed := gen
	unindexed.Indexes = nil // the whole is only partitioned: the shards are indexed
	whole, err := unindexed.Generate(a.seed)
	if err != nil {
		return fmt.Errorf("scenario: generating %s: %w", gen.Name, err)
	}
	keyIdx, err := whole.Schema().ColumnIndex("", spec.Column)
	if err != nil {
		return fmt.Errorf("scenario: sharded table %q: %w", gen.Name, err)
	}
	parts := make([][]sqltypes.Row, n)
	v := whole.View()
	for _, row := range v.Rows() {
		i := spec.ShardFor(row[keyIdx], n)
		parts[i] = append(parts[i], row)
	}
	v.Close()
	shards := make([]catalog.Shard, n)
	for i, id := range servers {
		srv, err := a.server(id)
		if err != nil {
			return err
		}
		name, suffix := catalog.ShardTableName(gen.Name, i), fmt.Sprintf("_s%d", i)
		if n == 1 {
			name, suffix = gen.Name, ""
		}
		tab := storage.NewTable(name, whole.Schema())
		if err := tab.Append(parts[i]...); err != nil {
			return err
		}
		for _, ig := range gen.Indexes {
			if _, err := tab.CreateIndex(ig.Name+suffix, ig.Column, ig.Kind); err != nil {
				return err
			}
		}
		srv.AddTable(tab)
		shards[i] = catalog.Shard{Index: i, Placements: []catalog.Placement{{ServerID: id, RemoteTable: name}}}
	}
	return a.sc.Catalog.RegisterSharded(gen.Name, whole.Schema(), spec, shards)
}

// Build adds the meta-wrapper over every declared server, the II node and the
// integrator, and returns the finished federation.
func (a *Assembly) Build() (*Scenario, error) {
	if len(a.wrappers) == 0 {
		return nil, fmt.Errorf("scenario: federation needs at least one server")
	}
	if len(a.sc.Catalog.Names()) == 0 {
		return nil, fmt.Errorf("scenario: federation has no tables")
	}
	sc := a.sc
	sc.MW = metawrapper.New(a.wrappers...)
	sc.IINode = remote.NewServer(remote.Config{
		ID: "II",
		Hardware: remote.HardwareProfile{
			CPUOpsPerMS:      3000,
			IOPagesPerMS:     100,
			CachedPagesPerMS: 3000,
			FixedOverheadMS:  0.5,
		},
		Contention: remote.ContentionProfile{CPU: 0.5, IO: 0.5, BufferChurn: 0.2, QueueAmp: 0.5},
	})
	sc.II = integrator.New(integrator.Config{
		Catalog: sc.Catalog,
		MW:      sc.MW,
		Node:    sc.IINode,
		Clock:   sc.Clock,
	})
	return &sc, nil
}
