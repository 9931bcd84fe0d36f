// Package workload defines the paper's evaluation workload: the four query
// fragment types QT1–QT4 of §5.2 (each with parameterized instances), the
// eight server-load phases of Table 1, the fixed server assignments the
// baselines use, and the update-load driver that puts remote servers under
// heavy background load. The driver's one write path is WriteNickname: a
// write reaches every copy of the logical table, so replicas stay replicas,
// and only the load level tells the servers apart.
package workload

import (
	"fmt"

	"repro/internal/scenario"
)

// QueryType is one of the paper's four query fragment types.
type QueryType struct {
	// Name is QT1..QT4.
	Name string
	// Description summarizes the paper's characterization.
	Description string
	// Make renders the SQL for instance i (0-based). Instances differ only
	// in the selection parameter, as in §5: "each with 10 different query
	// instances".
	Make func(i int) string
}

// Types returns the four query types:
//
//	QT1: equijoin on two large tables followed by a "greater than" selection
//	     on the input parameter and an aggregation (weakly selective).
//	QT2: like QT1 but the selection table is small — the join probes the
//	     large table per small-table row, the cache-reliant shape.
//	QT3: like QT1 but with a much more selective predicate.
//	QT4: a three-table join with a highly selective predicate.
func Types() []QueryType {
	return []QueryType{
		{
			Name:        "QT1",
			Description: "large ⋈ large, weak selection, aggregation",
			Make: func(i int) string {
				// Selectivity sweeps ~0.9 down to ~0.5 over instances.
				p := 1000 + 400*i
				return fmt.Sprintf(
					"SELECT SUM(l.l_price), COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > %d", p)
			},
		},
		{
			Name:        "QT2",
			Description: "small ⋈ large, selection on the small table, aggregation",
			Make: func(i int) string {
				// c_discount is uniform in [0, 0.2): selectivity 1 − i/10.
				p := float64(i) * 0.02
				return fmt.Sprintf(
					"SELECT SUM(o.o_amount), COUNT(*) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > %.3f", p)
			},
		},
		{
			Name:        "QT3",
			Description: "large ⋈ large, highly selective predicate, aggregation",
			Make: func(i int) string {
				// o_amount uniform in [0,10000): selectivity 2% down to
				// 0.5%. Phrased as BETWEEN so QT3's canonical form differs
				// from QT1's and the two learn separate calibration factors.
				p := 9800 + 15*i
				return fmt.Sprintf(
					"SELECT SUM(l.l_price), COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN %d AND 10000", p)
			},
		},
		{
			Name:        "QT4",
			Description: "three-table join, highly selective predicate",
			Make: func(i int) string {
				return fmt.Sprintf(
					"SELECT COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_id = %d", i)
			},
		},
	}
}

// TypeByName returns the named query type.
func TypeByName(name string) (QueryType, error) {
	for _, qt := range Types() {
		if qt.Name == name {
			return qt, nil
		}
	}
	return QueryType{}, fmt.Errorf("workload: unknown query type %q", name)
}

// Instances renders n instances of a query type.
func Instances(qt QueryType, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = qt.Make(i)
	}
	return out
}

// UniformMix builds the uniform workload of §5.3: n instances of each type,
// interleaved round-robin so the types are uniformly distributed. (The Mix
// type composes arrival processes into tenant traffic instead.)
func UniformMix(n int) []Item {
	types := Types()
	var out []Item
	for i := 0; i < n; i++ {
		for _, qt := range types {
			out = append(out, Item{Type: qt.Name, SQL: qt.Make(i)})
		}
	}
	return out
}

// Item is one workload query with its type tag.
type Item struct {
	Type string
	SQL  string
	// Class, when non-empty, pins the query's admission workload class (e.g.
	// "batch" for report traffic) instead of cost classification.
	Class string
	// Tenant, when non-empty, names the tenant submitting the query.
	Tenant string
}

// HeavyLoad is the load level "Load" phases put on a server; Base phases
// use zero.
const HeavyLoad = 1.0

// Phase is one row of Table 1: which servers carry the heavy update load.
type Phase struct {
	// Name is Phase1..Phase8.
	Name string
	// Loaded flags the servers under heavy update load.
	Loaded map[string]bool
}

// LoadLevel returns the load level for a server in this phase.
func (p Phase) LoadLevel(serverID string) float64 {
	if p.Loaded[serverID] {
		return HeavyLoad
	}
	return 0
}

// Label renders e.g. "Base/Load/Base" in S1,S2,S3 order.
func (p Phase) Label() string {
	out := ""
	for i, s := range []string{"S1", "S2", "S3"} {
		if i > 0 {
			out += "/"
		}
		if p.Loaded[s] {
			out += "Load"
		} else {
			out += "Base"
		}
	}
	return out
}

// Phases returns the eight phases of Table 1 exactly as printed:
//
//	Phase:   1    2    3    4    5    6    7    8
//	S1:      B    B    B    B    L    L    L    L
//	S2:      B    B    L    L    B    B    L    L
//	S3:      B    L    B    L    B    L    B    L
func Phases() []Phase {
	var out []Phase
	for i := 0; i < 8; i++ {
		out = append(out, Phase{
			Name: fmt.Sprintf("Phase%d", i+1),
			Loaded: map[string]bool{
				"S1": i&4 != 0,
				"S2": i&2 != 0,
				"S3": i&1 != 0,
			},
		})
	}
	return out
}

// burstRows is the size of the update burst a write puts on a table.
const burstRows = 25

// ApplyPhase sets each server's background load per the phase and, when any
// server is loaded, writes every nickname once (WriteNickname): the update
// load of §5.1 Step 4 dirties pages and drifts statistics, while load stays
// the per-server knob.
func ApplyPhase(sc *scenario.Scenario, p Phase, seed int64) error {
	loaded := false
	for id, srv := range sc.Servers {
		srv.SetLoadLevel(p.LoadLevel(id))
		loaded = loaded || p.Loaded[id]
	}
	if !loaded {
		return nil
	}
	for _, name := range sc.Catalog.Names() {
		if err := WriteNickname(sc, name, seed); err != nil {
			return err
		}
	}
	return nil
}

// WriteNickname writes the seeded update burst to the nickname at every
// placement the catalog lists. A write is a write to the logical table: its
// replicas take the same burst and stay equivalent data sources, so no route
// can change an answer.
func WriteNickname(sc *scenario.Scenario, nickname string, seed int64) error {
	nick, err := sc.Catalog.Lookup(nickname)
	if err != nil {
		return err
	}
	for _, p := range nick.Placements {
		srv, ok := sc.Servers[p.ServerID]
		if !ok {
			return fmt.Errorf("workload: nickname %q is placed on unknown server %q", nickname, p.ServerID)
		}
		if err := srv.ApplyUpdateBurst(p.RemoteTable, burstRows, seed); err != nil {
			return err
		}
	}
	return nil
}

// FixedAssignment1 is the "typical federated information system" baseline
// (§5.3): routing fixed at nickname registration time — QT1→S1, QT2→S2,
// QT3→S1, QT4→S3.
func FixedAssignment1() map[string]string {
	return map[string]string{"QT1": "S1", "QT2": "S2", "QT3": "S1", "QT4": "S3"}
}

// FixedAssignment2 is the "pick the most powerful machine" baseline
// (Figure 11): every query type routes to S3.
func FixedAssignment2() map[string]string {
	return map[string]string{"QT1": "S3", "QT2": "S3", "QT3": "S3", "QT4": "S3"}
}
