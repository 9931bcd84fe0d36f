// Package metawrapper implements the paper's Meta-Wrapper (MW): the
// middleware between the information integrator and the per-source wrappers
// (§2). At compile time MW records the incoming fragment statements, the
// estimated costs, and the fragment→server mappings, and — crucially —
// applies QCC's calibration to the estimates before they reach the
// integrator's optimizer (Figure 5). At run time MW forwards execution
// descriptors and probes and journals per-fragment response times, probe
// outcomes and errors; the journal hands each one to QCC.
package metawrapper

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/telemetry"
	"repro/internal/wrapper"
)

// FragmentKey identifies a fragment for calibration purposes: the paper
// keeps per-source factors and, when runtime statistics are available,
// per-(source, fragment) factors.
type FragmentKey struct {
	ServerID string
	// Signature is the fragment statement text (not the physical plan): the
	// identity under which costs are compared across compilations.
	Signature string
}

// Calibrator adjusts estimates; QCC implements it. A nil calibrator leaves
// estimates untouched.
type Calibrator interface {
	// CalibrateFragment scales a fragment estimate by the learned factor
	// for the (server, fragment) pair. Unavailable servers return +Inf.
	CalibrateFragment(key FragmentKey, est remote.CostEstimate, costKnown bool) remote.CostEstimate
}

// MetaWrapper multiplexes wrappers and instruments every interaction.
type MetaWrapper struct {
	mu       sync.RWMutex
	wrappers map[string]wrapper.Wrapper
	calib    Calibrator
	masked   map[string]bool
	tel      *telemetry.Telemetry
	journal  *journal.Journal
}

// New builds a MetaWrapper over the given wrappers.
func New(wrappers ...wrapper.Wrapper) *MetaWrapper {
	mw := &MetaWrapper{wrappers: map[string]wrapper.Wrapper{}, masked: map[string]bool{}, journal: journal.New()}
	for _, w := range wrappers {
		mw.wrappers[w.ServerID()] = w
	}
	return mw
}

// Journal returns the query journal MW records into: the federation's one.
func (mw *MetaWrapper) Journal() *journal.Journal { return mw.journal }

// SetCalibrator installs the calibrator (QCC).
func (mw *MetaWrapper) SetCalibrator(c Calibrator) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.calib = c
}

// SetTelemetry installs the observability subsystem (nil disables).
func (mw *MetaWrapper) SetTelemetry(t *telemetry.Telemetry) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.tel = t
}

func (mw *MetaWrapper) telemetry() *telemetry.Telemetry {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	return mw.tel
}

// Wrapper returns the wrapper for a server, or nil.
func (mw *MetaWrapper) Wrapper(serverID string) wrapper.Wrapper {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	return mw.wrappers[serverID]
}

// residencyReporter is the optional wrapper capability behind the
// cache-locality routing signal. Wrappers for sources without a buffer-pool
// model simply don't implement it.
type residencyReporter interface {
	CacheResidency(table string) float64
}

// CacheResidency returns the server's mean buffer-pool residency over the
// given physical tables, in [0,1]. Servers whose wrappers expose no residency
// estimate — and empty table lists — report 0, a uniform non-signal.
func (mw *MetaWrapper) CacheResidency(serverID string, tables []string) float64 {
	if len(tables) == 0 {
		return 0
	}
	rr, ok := mw.Wrapper(serverID).(residencyReporter)
	if !ok {
		return 0
	}
	var sum float64
	for _, t := range tables {
		sum += rr.CacheResidency(t)
	}
	return sum / float64(len(tables))
}

// Servers lists wrapped server IDs, sorted.
func (mw *MetaWrapper) Servers() []string {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	out := make([]string, 0, len(mw.wrappers))
	for id := range mw.wrappers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Mask hides a server from Explain: its plans are not offered to the
// integrator. QCC's simulated federated system uses masking to force the
// optimizer through alternative plan combinations (§4.2's "adjusting cost
// functions of R1 and R2 to infinity"), and the availability machinery uses
// it to fence off down servers.
func (mw *MetaWrapper) Mask(serverID string, masked bool) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.masked[serverID] = masked
}

// Masked reports whether a server is currently masked.
func (mw *MetaWrapper) Masked(serverID string) bool {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	return mw.masked[serverID]
}

// MaskedSet snapshots which servers are masked, under one lock (nil when
// none is). The federated plan cache takes it before collecting a statement's
// candidates and invalidates the entry when a candidate server's mask state
// differs from it (in either direction: a masked server contributed no
// candidates, an unmasked one is missing from the cached candidate sets).
func (mw *MetaWrapper) MaskedSet() map[string]bool {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	var out map[string]bool
	for id, masked := range mw.masked {
		if masked {
			if out == nil {
				out = map[string]bool{}
			}
			out[id] = true
		}
	}
	return out
}

func (mw *MetaWrapper) calibrator() Calibrator {
	mw.mu.RLock()
	defer mw.mu.RUnlock()
	return mw.calib
}

// ExplainFragment asks one server's wrapper for candidate plans, records the
// compile-time information, and returns candidates with CALIBRATED costs.
func (mw *MetaWrapper) ExplainFragment(serverID string, stmt *sqlparser.SelectStmt) ([]wrapper.Candidate, error) {
	return mw.ExplainFragmentContext(context.Background(), serverID, stmt)
}

// ExplainFragmentContext is ExplainFragment under a context carrying the
// active trace span; it renders the statement, derives the fragment's
// canonical signature from the text and calls ExplainKeyed.
func (mw *MetaWrapper) ExplainFragmentContext(ctx context.Context, serverID string, stmt *sqlparser.SelectStmt) ([]wrapper.Candidate, error) {
	sql := stmt.String()
	return mw.ExplainKeyed(ctx, fragmentKey(serverID, sql), stmt, sql)
}

// fragmentKey canonicalizes a fragment statement's text into its record key.
func fragmentKey(serverID, fragSQL string) FragmentKey {
	return FragmentKey{ServerID: serverID, Signature: sqlparser.CanonicalizeSQL(fragSQL)}
}

// ExplainKeyed is ExplainFragmentContext for a caller that already holds the
// statement's text sql and the fragment's canonical signature (the optimizer:
// FragmentSpec.SQL and Sig), so one fragment explained on N candidate servers
// is rendered and canonicalized once, not N times. Each call records one
// per-candidate remote-planning span. Remote planning is free in virtual time
// (compile cost is not charged to the clock), so the spans carry zero
// duration but preserve structure and outcome.
func (mw *MetaWrapper) ExplainKeyed(ctx context.Context, key FragmentKey, stmt *sqlparser.SelectStmt, sql string) ([]wrapper.Candidate, error) {
	serverID := key.ServerID
	sp := telemetry.SpanFrom(ctx).Emit("remote.plan", telemetry.LayerMW, serverID, 0)
	if mw.Masked(serverID) {
		sp.SetAttr("error", "masked")
		return nil, fmt.Errorf("metawrapper: server %s is masked", serverID)
	}
	w := mw.Wrapper(serverID)
	if w == nil {
		sp.SetAttr("error", "unknown server")
		return nil, fmt.Errorf("metawrapper: unknown server %q", serverID)
	}
	calib := mw.calibrator()
	queryID := journal.ScopeOf(ctx).Query
	cands, err := w.Explain(stmt, sql)
	if err != nil {
		sp.SetAttr("error", err.Error())
		mw.telemetry().Active().Counter("mw.explain_errors", serverID).Inc()
		mw.recordError(queryID, serverID, err)
		return nil, err
	}
	sp.SetAttr("candidates", strconv.Itoa(len(cands)))
	mw.telemetry().Active().Counter("mw.explains", serverID).Inc()
	out := make([]wrapper.Candidate, len(cands))
	for i, c := range cands {
		calibrated := c.Plan.Est
		if calib != nil {
			calibrated = calib.CalibrateFragment(key, c.Plan.Est, c.CostKnown)
		}
		mw.journal.Candidates.Add(journal.Candidate{
			QueryID:      queryID,
			Fragment:     key.Signature,
			ServerID:     serverID,
			PlanSig:      c.Plan.Signature,
			EstMS:        c.Plan.Est.TotalMS,
			CalibratedMS: calibrated.TotalMS,
			CostKnown:    c.CostKnown,
		})
		// Hand the integrator a copy carrying the calibrated estimate; the
		// raw estimate stays on record for calibration updates.
		cp := *c.Plan
		cp.Est = calibrated
		out[i] = wrapper.Candidate{Plan: &cp, RawEst: c.Plan.Est, CostKnown: c.CostKnown, Versions: c.Versions}
	}
	return out, nil
}

// CalibrateCandidate applies the CURRENT calibrator to a raw (uncalibrated)
// estimate without contacting the wrapper or the remote planner. This is the
// cheap tail of compilation the federated plan cache re-runs on every hit:
// the expensive head (parse, decompose, remote plan enumeration) is reused,
// while load, network, reliability and availability calibration always
// reflect the present. fragSig must be the fragment's canonical signature
// (the same key ExplainFragment records compile observations under).
func (mw *MetaWrapper) CalibrateCandidate(serverID, fragSig string, est remote.CostEstimate, costKnown bool) remote.CostEstimate {
	calib := mw.calibrator()
	if calib == nil {
		return est
	}
	return calib.CalibrateFragment(FragmentKey{ServerID: serverID, Signature: fragSig}, est, costKnown)
}

// TableVersions snapshots the current mutation counters of the named tables
// on one server — a local read with no simulated network traffic, used to
// validate cached compilations against remote table changes.
func (mw *MetaWrapper) TableVersions(serverID string, tables []string) (map[string]int64, error) {
	w := mw.Wrapper(serverID)
	if w == nil {
		return nil, fmt.Errorf("metawrapper: unknown server %q", serverID)
	}
	return w.TableVersions(tables)
}

// Ship forwards an execution descriptor (wrapper.Ship), handing each batch
// to emit as it arrives, and instruments the shipment. The context carries
// the dispatch's cancellation signal down to the wrapper, server and network
// layers; errors are classified (a cancelled dispatch is NOT journaled as a
// server error — the server did nothing wrong, the caller gave up), and a
// completed shipment records the response time AND,
// unless it is monolithic (batchRows <= 0), the time-to-first-row against
// the uncalibrated estimate, feeding QCC's separate FirstTupleMS
// calibration. key is the fragment's canonical record key (the integrator
// holds it as FragmentSpec.Sig); rawEst must be the wrapper's uncalibrated
// estimate for the executed plan.
func (mw *MetaWrapper) Ship(ctx context.Context, key FragmentKey, plan *remote.Plan, rawEst remote.CostEstimate, batchRows int, emit func(b *remote.Batch, arrive simclock.Time)) (*wrapper.StreamOutcome, error) {
	w := mw.Wrapper(key.ServerID)
	if w == nil {
		return nil, fmt.Errorf("metawrapper: unknown server %q", key.ServerID)
	}
	out, err := w.Ship(ctx, plan, batchRows, emit)
	if err != nil {
		mw.reportExecError(ctx, key.ServerID, err)
		return nil, err
	}
	mw.observeOutcome(ctx, key, plan, rawEst, out)
	return out, nil
}

// OpenFragmentStream is Ship for a caller holding the fragment statement's
// text fragSQL: it ships the fragment to the end and returns the shipment,
// whose batches the caller reads back at leisure.
func (mw *MetaWrapper) OpenFragmentStream(ctx context.Context, serverID, fragSQL string, plan *remote.Plan, rawEst remote.CostEstimate, batchRows int) (*wrapper.Shipment, error) {
	sh := &wrapper.Shipment{}
	out, err := mw.Ship(ctx, fragmentKey(serverID, fragSQL), plan, rawEst, batchRows, func(b *remote.Batch, _ simclock.Time) {
		sh.Batches = append(sh.Batches, b)
	})
	if err != nil {
		return nil, err
	}
	sh.StreamOutcome = out
	return sh, nil
}

// reportExecError is the shared run-time error classification: cancellation
// is the caller's doing and stays silent; anything else feeds the error
// counter and the journal.
func (mw *MetaWrapper) reportExecError(ctx context.Context, serverID string, err error) {
	if ctx.Err() != nil {
		return
	}
	mw.telemetry().Active().Counter("mw.errors", serverID).Inc()
	mw.recordError(journal.ScopeOf(ctx).Query, serverID, err)
}

// recordError journals a source error, classified as unavailability or not.
func (mw *MetaWrapper) recordError(queryID int64, serverID string, err error) {
	mw.journal.AddError(journal.Error{QueryID: queryID, ServerID: serverID, Err: err.Error(), Down: isDownError(err)})
}

// isDownError classifies errors that indicate source unavailability (down or
// partitioned) rather than a transient execution failure.
func isDownError(err error) bool {
	var sd *remote.ErrServerDown
	var np *network.ErrPartitioned
	return errors.As(err, &sd) || errors.As(err, &np)
}

func (mw *MetaWrapper) observeOutcome(ctx context.Context, key FragmentKey, plan *remote.Plan, rawEst remote.CostEstimate, out *wrapper.StreamOutcome) {
	mw.telemetry().Active().Histogram("mw.response_ms", key.ServerID, nil).Observe(float64(out.ResponseTime))
	if out.FirstRowTime > 0 {
		mw.telemetry().Active().Histogram("mw.first_row_ms", key.ServerID, nil).Observe(float64(out.FirstRowTime))
	}
	// The context says which query and fragment this shipment serves
	// (nothing, for a direct call) and carries the dispatch's span.
	scope := journal.ScopeOf(ctx)
	ship := journal.ShipMode(scope.Pushdown)
	telemetry.SpanFrom(ctx).SetAttr("ship", ship.String())
	mw.journal.AddRun(journal.Run{
		QueryID:         scope.Query,
		FragID:          scope.Frag,
		Fragment:        key.Signature,
		ServerID:        key.ServerID,
		PlanSig:         plan.Signature,
		EstMS:           rawEst.TotalMS,
		ObservedMS:      float64(out.ResponseTime),
		FirstTupleEstMS: rawEst.FirstTupleMS,
		FirstRowMS:      float64(out.FirstRowTime),
		OutBytes:        int32(out.WireBytes),
		Ship:            ship,
	})
}

// Probe checks one source's availability and journals the outcome, unless
// the caller cancelled it.
func (mw *MetaWrapper) Probe(ctx context.Context, serverID string) (simclock.Time, error) {
	w := mw.Wrapper(serverID)
	if w == nil {
		return 0, fmt.Errorf("metawrapper: unknown server %q", serverID)
	}
	rtt, err := w.Probe(ctx)
	p := journal.Probe{ServerID: serverID, RTTMS: float64(rtt)}
	if err != nil {
		p.Err, p.Down = err.Error(), isDownError(err)
	} else {
		mw.telemetry().Active().Histogram("network.rtt_ms", serverID, nil).Observe(float64(rtt))
	}
	if ctx.Err() == nil {
		mw.journal.AddProbe(p)
	}
	return rtt, err
}
