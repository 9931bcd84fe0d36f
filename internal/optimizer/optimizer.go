package optimizer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/metawrapper"
	"repro/internal/remote"
	"repro/internal/sqlparser"
	"repro/internal/telemetry"
)

// FragmentChoice is one fragment's selected (server, plan) pair in a global
// plan.
type FragmentChoice struct {
	Spec     *FragmentSpec
	ServerID string
	// Plan carries the CALIBRATED estimate in Plan.Est.
	Plan *remote.Plan
	// RawEst is the wrapper's uncalibrated estimate (for MW run records).
	RawEst remote.CostEstimate
	// CostKnown mirrors the wrapper candidate flag.
	CostKnown bool
}

// GlobalPlan is a fully-specified federated execution plan.
type GlobalPlan struct {
	// Query is the original statement text.
	Query string
	// Stmt is the parsed statement.
	Stmt *sqlparser.SelectStmt
	// Decomp is the decomposition the plan was derived from.
	Decomp *Decomposition
	// Fragments lists the chosen fragment executions.
	Fragments []FragmentChoice
	// MergeEstMS is the calibrated estimate of II-side merge work.
	MergeEstMS float64
	// TotalEstMS is the plan's calibrated global cost: since fragments run
	// in parallel, max(fragment costs) + merge.
	TotalEstMS float64
	// Options holds, per fragment (aligned with Fragments), every calibrated
	// replica alternative that survived enumeration — the menu a replica
	// router picks from per dispatch instead of only swapping whole global
	// plans. Nil when the plan was not produced by EnumerateFromOptions.
	Options [][]FragmentChoice
}

// ServerSet returns the sorted set of servers the plan touches — the §4.2
// pruning identity ("for global query plans whose fragment queries are
// executed on the same set of servers, pick the cheapest").
func (g *GlobalPlan) ServerSet() []string {
	out := make([]string, len(g.Fragments))
	for i, f := range g.Fragments {
		out[i] = f.ServerID
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ServerSetKey renders ServerSet as a canonical string key.
func (g *GlobalPlan) ServerSetKey() string { return strings.Join(g.ServerSet(), ",") }

// RouteKey identifies the routing decision: fragment→server assignments in
// fragment order.
func (g *GlobalPlan) RouteKey() string {
	parts := make([]string, len(g.Fragments))
	for i, f := range g.Fragments {
		parts[i] = f.Spec.ID + "@" + f.ServerID
	}
	return strings.Join(parts, "+")
}

// IICalibrator calibrates integrator-side cost with the workload factor
// (§3.2); QCC implements it. A nil calibrator is the identity.
type IICalibrator interface {
	CalibrateII(estMS float64) float64
}

// Optimizer performs global query optimization.
type Optimizer struct {
	// Catalog resolves nicknames.
	Catalog *catalog.Catalog
	// MW is the instrumented wrapper layer.
	MW *metawrapper.MetaWrapper
	// IINode models the integrator machine for merge costing and timing.
	IINode *remote.Server
	// IICalib is QCC's workload calibrator (may be nil).
	IICalib IICalibrator
}

// Optimize decomposes the statement, gathers per-fragment candidates, and
// returns the cheapest global plan. Servers whose Explain fails (down,
// masked or partitioned) simply contribute no candidates; the query only
// fails when some fragment has no surviving candidate at all.
func (o *Optimizer) Optimize(stmt *sqlparser.SelectStmt) (*GlobalPlan, error) {
	plans, err := o.Enumerate(stmt, DecomposeOpts{}, 1)
	if err != nil {
		return nil, err
	}
	return plans[0], nil
}

// SourceOption is one RAW candidate for a fragment: a (server, plan) pair
// carrying the wrapper's uncalibrated estimate and the table-version
// snapshot it was computed against. Raw options are what the federated plan
// cache stores — calibration is re-applied at use time, so cached
// compilations always route on current load, network, reliability and
// availability factors.
type SourceOption struct {
	ServerID string
	// Plan carries the RAW estimate in Plan.Est.
	Plan   *remote.Plan
	RawEst remote.CostEstimate
	// CostKnown mirrors the wrapper candidate flag.
	CostKnown bool
	// Versions snapshots the fragment tables' versions on ServerID as of the
	// explain that produced this option.
	Versions map[string]int64
}

// FragmentOptions couples a fragment spec (which carries the canonical
// signature, the calibration key) with its raw candidate set.
type FragmentOptions struct {
	Spec    *FragmentSpec
	Options []SourceOption
}

// ExcludeFunc filters fragment candidates during plan selection; retry
// loops use it to steer a recompile away from a server that just failed a
// fragment. Nil excludes nothing.
type ExcludeFunc func(fragID, serverID string) bool

// Enumerate returns up to topK global plans ranked by calibrated cost (all
// when topK <= 0), with the statement decomposed under opts, for Optimize and
// the what-if surfaces; compilation routes over EnumerateFromOptions' ranking.
func (o *Optimizer) Enumerate(stmt *sqlparser.SelectStmt, opts DecomposeOpts, topK int) ([]*GlobalPlan, error) {
	decomp, frags, err := o.Collect(context.Background(), stmt, opts)
	if err != nil {
		return nil, err
	}
	ranked, err := o.EnumerateFromOptions(stmt, decomp, frags, nil)
	if topK > 0 && len(ranked) > topK {
		ranked = ranked[:topK]
	}
	return ranked, err
}

// Collect runs the EXPENSIVE head of compilation: it decomposes the
// statement under opts and gathers each fragment's raw candidate set through
// the meta-wrapper (one remote planner round-trip per candidate server). The
// result is reusable across compilations of the same statement — it depends
// only on the statement, opts, the catalog and remote table state, never on
// calibration factors. ctx carries the active trace span, so each candidate
// server's remote planning round-trip is recorded as a per-candidate span.
func (o *Optimizer) Collect(ctx context.Context, stmt *sqlparser.SelectStmt, opts DecomposeOpts) (*Decomposition, []FragmentOptions, error) {
	decomp, err := DecomposeWith(stmt, o.Catalog, opts)
	if err != nil {
		return nil, nil, err
	}
	telemetry.SpanFrom(ctx).Emit("decompose", telemetry.LayerII, "", 0).
		SetAttr("fragments", strconv.Itoa(len(decomp.Fragments)))
	frags := make([]FragmentOptions, len(decomp.Fragments))
	for i, frag := range decomp.Fragments {
		fo := FragmentOptions{Spec: frag}
		var lastErr error
		for _, serverID := range frag.Candidates {
			cands, err := o.MW.ExplainKeyed(ctx, metawrapper.FragmentKey{ServerID: serverID, Signature: frag.Sig}, frag.Stmt, frag.SQL)
			if err != nil {
				lastErr = err
				continue
			}
			for _, c := range cands {
				// Keep the raw estimate on the stored plan; calibrated
				// copies are minted per use in EnumerateFromOptions.
				rawPlan := *c.Plan
				rawPlan.Est = c.RawEst
				fo.Options = append(fo.Options, SourceOption{
					ServerID:  serverID,
					Plan:      &rawPlan,
					RawEst:    c.RawEst,
					CostKnown: c.CostKnown,
					Versions:  c.Versions,
				})
			}
		}
		if len(fo.Options) == 0 {
			if lastErr != nil {
				return nil, nil, fmt.Errorf("optimizer: fragment %s has no available source: %w", frag.ID, lastErr)
			}
			return nil, nil, fmt.Errorf("optimizer: fragment %s has no available source", frag.ID)
		}
		frags[i] = fo
	}
	return decomp, frags, nil
}

// EnumerateFromOptions runs the CHEAP tail of compilation over previously
// collected (or cached) raw candidate sets: apply the current calibration
// factors, drop unavailable candidates (calibrated to +Inf) and excluded
// servers, enumerate global combinations and rank them, the winner first: the
// router reads its rotation sets off this whole ranking. No meta-wrapper,
// wrapper or remote-planner round-trips happen here.
func (o *Optimizer) EnumerateFromOptions(stmt *sqlparser.SelectStmt, decomp *Decomposition, frags []FragmentOptions, exclude ExcludeFunc) ([]*GlobalPlan, error) {
	options := make([][]FragmentChoice, len(frags))
	for i, fo := range frags {
		var opts []FragmentChoice
		for _, so := range fo.Options {
			if exclude != nil && exclude(fo.Spec.ID, so.ServerID) {
				continue
			}
			calibrated := so.RawEst
			if o.MW != nil {
				calibrated = o.MW.CalibrateCandidate(so.ServerID, fo.Spec.Sig, so.RawEst, so.CostKnown)
			}
			if math.IsInf(calibrated.TotalMS, 1) {
				continue // calibrated to infinity: unavailable
			}
			cp := *so.Plan
			cp.Est = calibrated
			opts = append(opts, FragmentChoice{
				Spec:      fo.Spec,
				ServerID:  so.ServerID,
				Plan:      &cp,
				RawEst:    so.RawEst,
				CostKnown: so.CostKnown,
			})
		}
		if len(opts) == 0 {
			return nil, fmt.Errorf("optimizer: fragment %s has no available source", fo.Spec.ID)
		}
		options[i] = opts
	}

	all := o.assembleMenu(stmt, decomp, options)
	if len(all) == 0 {
		return nil, fmt.Errorf("optimizer: no global plan for %q", stmt.String())
	}
	// Not stable on purpose: a stable sort moves a pinned route.
	sort.Slice(all, func(i, j int) bool { return all[i].TotalEstMS < all[j].TotalEstMS })
	return all, nil
}

// maxGlobalPlans caps the combinations assembleMenu assembles.
const maxGlobalPlans = 256

// assembleMenu assembles every combination of a per-fragment menu of
// calibrated choices into a global plan, in menu order (the first fragment's
// choice varies slowest), capped at maxGlobalPlans. Each plan carries the
// menu as its Options.
func (o *Optimizer) assembleMenu(stmt *sqlparser.SelectStmt, decomp *Decomposition, menu [][]FragmentChoice) []*GlobalPlan {
	// Rendered once: every combination, the journal's winner entry and the
	// router's rotation key share this one string.
	text := stmt.String()
	var all []*GlobalPlan
	var walk func(i int, acc []FragmentChoice)
	walk = func(i int, acc []FragmentChoice) {
		if len(all) >= maxGlobalPlans {
			return
		}
		if i == len(menu) {
			gp := o.assembleGlobal(text, stmt, decomp, append([]FragmentChoice(nil), acc...))
			gp.Options = menu
			all = append(all, gp)
			return
		}
		for _, opt := range menu[i] {
			walk(i+1, append(acc, opt))
		}
	}
	walk(0, nil)
	return all
}

// AssembleGlobal builds a global plan from an explicit per-fragment choice
// list, re-deriving the merge and total estimates exactly as enumeration
// does. Replica routers use it to re-assemble a plan after swapping
// individual fragment choices from GlobalPlan.Options.
func (o *Optimizer) AssembleGlobal(stmt *sqlparser.SelectStmt, decomp *Decomposition, chosen []FragmentChoice) *GlobalPlan {
	return o.assembleGlobal(stmt.String(), stmt, decomp, chosen)
}

func (o *Optimizer) assembleGlobal(text string, stmt *sqlparser.SelectStmt, decomp *Decomposition, chosen []FragmentChoice) *GlobalPlan {
	gp := &GlobalPlan{
		Query:     text,
		Stmt:      stmt,
		Decomp:    decomp,
		Fragments: chosen,
	}
	// Fragments execute in parallel: the remote phase costs the max.
	maxFrag := 0.0
	for _, f := range chosen {
		if f.Plan.Est.TotalMS > maxFrag {
			maxFrag = f.Plan.Est.TotalMS
		}
	}
	gp.MergeEstMS = o.mergeEstimate(decomp, chosen)
	if o.IICalib != nil {
		gp.MergeEstMS = o.IICalib.CalibrateII(gp.MergeEstMS)
	}
	gp.TotalEstMS = maxFrag + gp.MergeEstMS
	return gp
}

// mergeEstimate approximates the integrator-side work of joining fragment
// results and applying the statement tail. For single-fragment plans the
// merge is a passthrough.
func (o *Optimizer) mergeEstimate(decomp *Decomposition, chosen []FragmentChoice) float64 {
	if decomp.SingleFragment {
		return 0
	}
	var res exec.Resources
	var cards []float64
	for _, f := range chosen {
		cards = append(cards, float64(f.Plan.Est.Card))
	}
	// Hash-join chain: build+probe each fragment once; output bounded by the
	// largest input (equi-joins on keys).
	maxCard := 0.0
	sum := 0.0
	for _, c := range cards {
		sum += c
		if c > maxCard {
			maxCard = c
		}
	}
	res.CPUOps = 2*sum + maxCard
	if decomp.Stmt.HasAggregates() || len(decomp.Stmt.GroupBy) > 0 {
		res.CPUOps += maxCard * 2
	}
	if len(decomp.Stmt.OrderBy) > 0 && maxCard > 2 {
		res.CPUOps += maxCard * math.Log2(maxCard)
	}
	if o.IINode == nil {
		return res.CPUOps / 1000
	}
	return o.IINode.EstimateTime(res)
}
