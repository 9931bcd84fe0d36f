package fedqcc

import (
	"repro/internal/experiment"
)

// Experiment re-exports: the §5 studies and report formatters, so binaries
// and downstream users can regenerate every table and figure.

// ExperimentOptions configures the paper's studies.
type ExperimentOptions = experiment.Options

// SensitivityResult is Figure 9's data for one query type.
type SensitivityResult = experiment.SensitivityResult

// PhaseOutcome is one phase's Table 2 / Figure 10 / Figure 11 measurement.
type PhaseOutcome = experiment.PhaseOutcome

// RunSensitivityStudy reproduces Figure 9 (a)–(d).
func RunSensitivityStudy(opts ExperimentOptions) ([]SensitivityResult, error) {
	return experiment.SensitivityStudy(opts)
}

// RunGainStudy reproduces Table 2 and Figures 10–11.
func RunGainStudy(opts ExperimentOptions) ([]PhaseOutcome, error) {
	return experiment.GainStudy(opts)
}

// NetworkOutcome is one congestion level's measurement.
type NetworkOutcome = experiment.NetworkOutcome

// RunNetworkStudy sweeps network congestion on the preferred server's link,
// comparing pinned routing against QCC (the title's "network aware" claim).
// A nil levels slice uses 1/2/4/8/16.
func RunNetworkStudy(opts ExperimentOptions, levels []float64) ([]NetworkOutcome, error) {
	return experiment.NetworkStudy(opts, levels)
}

// LBOutcome is one load-distribution policy's measurement.
type LBOutcome = experiment.LBOutcome

// RunLoadBalanceStudy quantifies §4's load distribution: a burst of
// identical queries against uniform replicas that heat up under their own
// traffic, measured with rotation off, fragment-level (§4.1) and
// global-level (§4.2).
func RunLoadBalanceStudy(opts ExperimentOptions, burst int) ([]LBOutcome, error) {
	return experiment.LoadBalanceStudy(opts, burst)
}

// WeightedOutcome is one replica-routing policy's hotspot measurement.
type WeightedOutcome = experiment.WeightedOutcome

// RunWeightedRoutingStudy compares round-robin load distribution against the
// score-based weighted replica router on the fully replicated hotspot
// scenario (induced load + buffer-pool residency), reporting p50/p95/p99
// response times and per-server utilization balance. A non-positive burst
// uses the default (60 queries).
func RunWeightedRoutingStudy(opts ExperimentOptions, burst int) ([]WeightedOutcome, error) {
	return experiment.WeightedRoutingStudy(opts, burst)
}

// ProbeRow is one configuration of one probe: virtual latency, first row,
// wire bytes and fragments per query, per-server executions, admission
// outcomes and the query-level estimate error.
type ProbeRow = experiment.ProbeRow

// RunProbes runs every probe — seeded federations with fixed statement lists,
// each statement checked against a single-site oracle — and returns the rows
// TestProbesGolden pins.
func RunProbes() ([]ProbeRow, error) { return experiment.Probes() }

// MultitenantOutcome is one scenario of the multi-tenant overload study.
type MultitenantOutcome = experiment.MultitenantOutcome

// MultitenantTenantOutcome is one tenant's slice of a scenario outcome.
type MultitenantTenantOutcome = experiment.MultitenantTenantOutcome

// MultitenantStudyResult is the full multi-tenant study.
type MultitenantStudyResult = experiment.MultitenantStudyResult

// RunMultitenantStudy runs the multi-tenant overload scenarios
// (equal-weights fairness, 3:1 weighted shares, light/heavy isolation) as
// seeded discrete-event simulations of the weighted-fair admission
// controller, reporting per-tenant latency percentiles, served-cost shares,
// Jain's fairness index and shed rates.
func RunMultitenantStudy(opts ExperimentOptions) (MultitenantStudyResult, error) {
	return experiment.MultitenantStudy(opts)
}

// Report formatters for the paper's tables and figures.
var (
	// FormatFigure9 renders the sensitivity series.
	FormatFigure9 = experiment.FormatFigure9
	// FormatTable1 renders the load-phase matrix.
	FormatTable1 = experiment.FormatTable1
	// FormatTable2 renders fixed vs dynamic assignments.
	FormatTable2 = experiment.FormatTable2
	// FormatFigure10 renders QCC vs fixed assignment 1.
	FormatFigure10 = experiment.FormatFigure10
	// FormatFigure11 renders QCC vs fixed assignment 2.
	FormatFigure11 = experiment.FormatFigure11
	// FormatNetworkStudy renders the congestion sweep.
	FormatNetworkStudy = experiment.FormatNetworkStudy
	// FormatLoadBalanceStudy renders the §4 rotation study.
	FormatLoadBalanceStudy = experiment.FormatLoadBalanceStudy
	// FormatWeightedRoutingStudy renders the replica-routing comparison.
	FormatWeightedRoutingStudy = experiment.FormatWeightedRoutingStudy
	// FormatProbes renders probe rows, every float at full precision.
	FormatProbes = experiment.FormatProbes
	// FormatMultitenantStudy renders the multi-tenant overload scenarios.
	FormatMultitenantStudy = experiment.FormatMultitenantStudy
	// AverageGains summarizes a gain study.
	AverageGains = experiment.AverageGains
)
