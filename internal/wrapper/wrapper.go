// Package wrapper implements the federation's wrapper layer: the adapters
// through which the integrator talks to heterogeneous remote sources. The
// relational wrapper forwards fragment statements to a remote DBMS for plan
// enumeration and cost estimation and ships execution descriptors and
// results over the simulated network. The file wrapper models non-relational
// sources that return data locations WITHOUT cost estimates (§1: "for those
// sub-queries that are forwarded to a file wrapper, file paths are returned
// to II without estimated cost") — the case QCC must seed through daemon
// probing.
package wrapper

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Candidate is one plan option a wrapper offers for a fragment.
type Candidate struct {
	// Plan is the execution descriptor. When the candidate has passed
	// through the meta-wrapper, Plan.Est carries the CALIBRATED estimate.
	Plan *remote.Plan
	// RawEst is the wrapper's original (uncalibrated) estimate; identical
	// to Plan.Est until the meta-wrapper calibrates.
	RawEst remote.CostEstimate
	// CostKnown is false for sources (file wrappers) that cannot estimate;
	// Plan.Est is zero in that case and QCC must supply a seed estimate.
	CostKnown bool
	// Versions snapshots the referenced tables' mutation counters as of this
	// explain (taken BEFORE plan enumeration, so a concurrent mutation makes
	// the snapshot conservatively stale). The federated plan cache compares
	// them against TableVersions to invalidate cached compilations.
	Versions map[string]int64
}

// Wrapper adapts one remote source.
type Wrapper interface {
	// ServerID identifies the wrapped source.
	ServerID() string
	// Kind names the wrapper type ("relational", "file").
	Kind() string
	// TableSchema returns the schema of a hosted table.
	TableSchema(table string) (*sqltypes.Schema, error)
	// Explain returns candidate plans for the fragment statement stmt, whose
	// text (stmt.String()) the caller rendered as sql.
	Explain(stmt *sqlparser.SelectStmt, sql string) ([]Candidate, error)
	// TableVersions snapshots the current mutation counters of the named
	// tables — a cheap local read (no simulated network traffic) used to
	// validate cached compilations.
	TableVersions(tables []string) (map[string]int64, error)
	// Ship runs an execution descriptor and hands each result batch to emit
	// with its virtual arrival time (since fragment start) as it arrives:
	// batches ship over the network as the server produces them, overlapping
	// remote compute with transfer. The context carries cancellation (a
	// sibling fragment failed): no batch is emitted after it is cancelled
	// and Ship returns its error. batchRows <= 0 degenerates to one
	// monolithic batch: store-and-forward timing.
	Ship(ctx context.Context, plan *remote.Plan, batchRows int, emit func(b *remote.Batch, arrive simclock.Time)) (*StreamOutcome, error)
	// Probe checks source availability end to end (network + server).
	Probe(ctx context.Context) (simclock.Time, error)
}

// Relational wraps a remote DBMS reachable over a network topology.
type Relational struct {
	server *remote.Server
	topo   *network.Topology
}

// NewRelational builds a relational wrapper.
func NewRelational(server *remote.Server, topo *network.Topology) *Relational {
	return &Relational{server: server, topo: topo}
}

// ServerID implements Wrapper.
func (w *Relational) ServerID() string { return w.server.ID() }

// Kind implements Wrapper.
func (w *Relational) Kind() string { return "relational" }

// TableSchema implements Wrapper.
func (w *Relational) TableSchema(table string) (*sqltypes.Schema, error) {
	t := w.server.Table(table)
	if t == nil {
		return nil, fmt.Errorf("wrapper: %s does not host %q", w.server.ID(), table)
	}
	return t.Schema(), nil
}

// Explain implements Wrapper. The returned estimates include the static
// network transfer estimate for the result volume, mirroring how a DBA's
// registered latency enters the cost model.
func (w *Relational) Explain(stmt *sqlparser.SelectStmt, sql string) ([]Candidate, error) {
	if link := w.topo.Link(w.server.ID()); link != nil && link.Down() {
		return nil, &network.ErrPartitioned{Dest: w.server.ID()}
	}
	versions := versionSnapshot(w.server, stmt)
	plans, err := w.server.ExplainSQL(stmt, sql)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(plans))
	for i, p := range plans {
		// Copy before adjusting: the server may serve the same plan object
		// from its plan cache to later explains.
		cp := *p
		if link := w.topo.Link(w.server.ID()); link != nil {
			// Price the request at the same envelope size Execute actually
			// ships, so the estimate/actual gap reflects network dynamics
			// rather than our own bookkeeping.
			reqTime := link.StaticTransferTime(len(cp.SQL) + requestEnvelopeBytes)
			cp.Est.TotalMS += float64(reqTime + link.StaticTransferTime(cp.Est.OutBytes))
			cp.Est.FirstTupleMS += float64(reqTime)
		}
		out[i] = Candidate{Plan: &cp, RawEst: cp.Est, CostKnown: true, Versions: versions}
	}
	return out, nil
}

// TableVersions implements Wrapper.
func (w *Relational) TableVersions(tables []string) (map[string]int64, error) {
	versions, ok := w.server.TableVersions(tables)
	if !ok {
		return nil, fmt.Errorf("wrapper: %s does not host all of %v", w.server.ID(), tables)
	}
	return versions, nil
}

// Probe implements Wrapper: a round trip plus the server's health check.
func (w *Relational) Probe(ctx context.Context) (simclock.Time, error) {
	rtt, err := w.topo.RoundTrip(ctx, w.server.ID(), 64, 64)
	if err != nil {
		return 0, err
	}
	st, err := w.server.Probe(ctx)
	if err != nil {
		return 0, err
	}
	return rtt + st, nil
}

// CacheResidency reports the server's buffer-pool residency estimate for a
// physical table — a replica-routing signal, not part of the Wrapper
// interface (sources without a cache model simply don't implement it).
func (w *Relational) CacheResidency(table string) float64 {
	return w.server.CacheResidency(table)
}

// versionSnapshot captures the referenced tables' versions before an
// explain; a missing table yields a nil snapshot (the explain itself will
// report the error).
func versionSnapshot(server *remote.Server, stmt *sqlparser.SelectStmt) map[string]int64 {
	refs := stmt.Tables()
	names := make([]string, len(refs))
	for i, tr := range refs {
		names[i] = tr.Name
	}
	versions, ok := server.TableVersions(names)
	if !ok {
		return nil
	}
	return versions
}

// File wraps a file-like source: data can be scanned but the source offers
// no cost estimation. It is backed by a remote server restricted to
// sequential access, and is a Relational in everything but what it tells the
// optimizer.
type File struct {
	*Relational
}

// NewFile builds a file wrapper.
func NewFile(server *remote.Server, topo *network.Topology) *File {
	return &File{NewRelational(server, topo)}
}

// Kind implements Wrapper.
func (w *File) Kind() string { return "file" }

// Explain implements Wrapper: it returns a single scan-based plan with NO
// cost estimate (CostKnown=false, zero Est), like a file path hand-back.
func (w *File) Explain(stmt *sqlparser.SelectStmt, sql string) ([]Candidate, error) {
	if link := w.topo.Link(w.server.ID()); link != nil && link.Down() {
		return nil, &network.ErrPartitioned{Dest: w.server.ID()}
	}
	versions := versionSnapshot(w.server, stmt)
	plans, err := w.server.ExplainSQL(stmt, sql)
	if err != nil {
		return nil, err
	}
	// Prefer the pure-scan plan; files have no indexes to speak of.
	chosen := plans[0]
	for _, p := range plans {
		if !strings.Contains(p.Signature, "IDXSCAN") && !strings.Contains(p.Signature, "INLJOIN") {
			chosen = p
			break
		}
	}
	cp := *chosen
	cp.Est = remote.CostEstimate{}
	return []Candidate{{Plan: &cp, CostKnown: false, Versions: versions}}, nil
}
