package qcc

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/metawrapper"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/wrapper"
)

// SimulatedFederation is the paper's "simulated federated system that has
// the same II, meta-wrapper, and wrappers as the original run time system as
// well as the simulated catalog and virtual tables, to capture database
// statistics and server characteristics without storing the actual data"
// (§2). QCC uses it to derive alternative query plans and perform what-if
// analysis for query routing without touching the production path.
type SimulatedFederation struct {
	// MW is the simulated meta-wrapper over virtual servers.
	MW *metawrapper.MetaWrapper
	// Opt is the simulated global optimizer.
	Opt *optimizer.Optimizer
	// Servers are the statistics-only server clones.
	Servers map[string]*remote.Server
}

// NewSimulatedFederation clones the real servers into statistics-only
// shells: same hardware configuration, same table schemas, same indexes,
// same statistics — no rows. The real topology and catalog are shared (both
// are consulted read-only during explain).
func NewSimulatedFederation(real map[string]*remote.Server, topo *network.Topology, cat *catalog.Catalog, iiNode *remote.Server, calib metawrapper.Calibrator) (*SimulatedFederation, error) {
	virtual := map[string]*remote.Server{}
	var wrappers []wrapper.Wrapper
	for id, rs := range real {
		vs := remote.NewServer(rs.Config())
		for _, tname := range rs.Tables() {
			vt, err := virtualShell(rs.Table(tname))
			if err != nil {
				return nil, fmt.Errorf("qcc: cloning %s on %s: %w", tname, id, err)
			}
			vs.AddTable(vt)
		}
		virtual[id] = vs
		wrappers = append(wrappers, wrapper.NewRelational(vs, topo))
	}
	mw := metawrapper.New(wrappers...)
	if calib != nil {
		mw.SetCalibrator(calib)
	}
	return &SimulatedFederation{
		MW:      mw,
		Opt:     &optimizer.Optimizer{Catalog: cat, MW: mw, IINode: iiNode},
		Servers: virtual,
	}, nil
}

// virtualShell builds the statistics-only clone of a real table: its schema,
// its indexes and a copy of its statistics, all of one version.
func virtualShell(rt *storage.Table) (*storage.Table, error) {
	v := rt.View()
	defer v.Close()
	vt := storage.NewTable(rt.Name(), rt.Schema())
	vt.SetVirtualStats(v.Stats().Clone())
	for _, ix := range v.Indexes() {
		if _, err := vt.CreateIndex(ix.Name(), ix.Column(), ix.Kind()); err != nil {
			return nil, err
		}
	}
	return vt, nil
}

// Enumerate derives up to topK alternative global plans with calibrated
// costs, without executing anything (topK <= 0 returns all).
func (sf *SimulatedFederation) Enumerate(stmt *sqlparser.SelectStmt, topK int) ([]*optimizer.GlobalPlan, error) {
	return sf.Opt.Enumerate(stmt, optimizer.DecomposeOpts{}, topK)
}

// EnumerateByMasking reproduces the paper's §4.2 trick verbatim: instead of
// asking the optimizer for all combinations, it runs the optimizer in
// explain mode once per fragment→server assignment, masking every other
// candidate server ("adjusting cost functions of R1 and R2 to infinity so
// that only the query fragment processing plans at S1 and S2 will be
// considered"). Each run yields the winner for that server combination; the
// union over combinations is the alternative-plan set. For the paper's Q6
// with two fragments × two servers each, this is exactly four explain runs
// covering nine global plans.
func (sf *SimulatedFederation) EnumerateByMasking(stmt *sqlparser.SelectStmt) ([]*optimizer.GlobalPlan, int, error) {
	decomp, err := optimizer.Decompose(stmt, sf.Opt.Catalog)
	if err != nil {
		return nil, 0, err
	}
	// Collect the union of candidate servers across fragments.
	candidateSets := make([][]string, len(decomp.Fragments))
	union := map[string]bool{}
	for i, f := range decomp.Fragments {
		candidateSets[i] = f.Candidates
		for _, s := range f.Candidates {
			union[s] = true
		}
	}
	var plans []*optimizer.GlobalPlan
	seen := map[string]bool{}
	runs := 0
	// Iterate the cartesian product of per-fragment server assignments.
	assignment := make([]string, len(candidateSets))
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(candidateSets) {
			allowed := map[string]bool{}
			for _, s := range assignment {
				allowed[s] = true
			}
			for s := range union {
				sf.MW.Mask(s, !allowed[s])
			}
			defer func() {
				for s := range union {
					sf.MW.Mask(s, false)
				}
			}()
			runs++
			gp, err := sf.Opt.Optimize(stmt)
			if err != nil {
				// This combination is infeasible (e.g. a fenced server);
				// skip it rather than failing the whole analysis.
				return nil
			}
			if !seen[gp.RouteKey()] {
				seen[gp.RouteKey()] = true
				plans = append(plans, gp)
			}
			return nil
		}
		for _, s := range candidateSets[i] {
			assignment[i] = s
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, runs, err
	}
	if len(plans) == 0 {
		return nil, runs, fmt.Errorf("qcc: masking enumeration found no feasible plan")
	}
	return plans, runs, nil
}
