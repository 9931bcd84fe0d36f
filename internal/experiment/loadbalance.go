package experiment

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// LBOutcome is one load-distribution policy's measurement.
type LBOutcome struct {
	// Mode names the policy.
	Mode string
	// AvgMS is the mean response time over the query burst.
	AvgMS float64
	// P95MS approximates the 95th-percentile response time.
	P95MS float64
	// ServersUsed counts servers that executed at least one fragment.
	ServersUsed int
	// MaxShare is the largest per-server share of executions (1.0 = all on
	// one server; 1/n = perfectly even).
	MaxShare float64
}

// LoadBalanceStudy quantifies §4's claim: with servers that heat up under
// their own query traffic (induced load), pinning a hot query's "cheapest"
// plan overloads one server, while QCC's round-robin rotation over
// close-cost plans spreads the burst and lowers response times. The study
// fires a burst of identical QT2-shaped queries under three policies:
// no load distribution, fragment-level rotation (§4.1) and global-level
// rotation (§4.2).
func LoadBalanceStudy(opts Options, burst int) ([]LBOutcome, error) {
	opts.fill()
	if burst <= 0 {
		burst = 30
	}
	build := scenario.ThreeServerFederations(scenario.Options{
		Scale: opts.Scale,
		Seed:  opts.Seed,
		// §4's setting: true equivalent data sources (uniform replicas)
		// that heat up under their own query traffic.
		Uniform:     true,
		InducedLoad: remote.InducedLoadProfile{WindowMS: 1000, Gain: 12},
	})
	var out []LBOutcome
	for _, mode := range []router.Mode{router.Off, router.Fragment, router.Global} {
		o, err := runLBBurst(build, mode, burst)
		if err != nil {
			return nil, fmt.Errorf("lb study %s: %w", mode, err)
		}
		out = append(out, o)
	}
	return out, nil
}

func runLBBurst(build func() (*scenario.Scenario, error), mode router.Mode, burst int) (LBOutcome, error) {
	sc, err := build()
	if err != nil {
		return LBOutcome{}, err
	}
	qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Routing:        router.Policy{Mode: mode, Closeness: 0.2}, // the paper's "within 20%" band
		DisableDaemons: true,
	}, sc.II)

	// A moderately expensive query so the burst actually heats servers.
	qt, err := workload.TypeByName("QT2")
	if err != nil {
		return LBOutcome{}, err
	}
	var times []float64
	for i := 0; i < burst; i++ {
		res, err := sc.II.Query(qt.Make(i % 10))
		if err != nil {
			return LBOutcome{}, err
		}
		times = append(times, float64(res.ResponseTime))
	}
	used, maxShare, _ := spread(executions(sc, nil))
	return LBOutcome{
		Mode:        mode.String(),
		AvgMS:       Mean(times),
		P95MS:       percentile(times, 0.95),
		ServersUsed: used,
		MaxShare:    maxShare,
	}, nil
}

// WeightedOutcome is one replica-routing policy's hotspot measurement.
type WeightedOutcome struct {
	// Policy names the routing policy ("round-robin" or "weighted").
	Policy string
	// AvgMS is the mean response time over the burst.
	AvgMS float64
	// P50MS, P95MS and P99MS approximate the tail of the response-time
	// distribution.
	P50MS float64
	P95MS float64
	P99MS float64
	// ServersUsed counts servers that executed at least one fragment.
	ServersUsed int
	// MaxShare is the largest per-server share of executions.
	MaxShare float64
	// UtilRatio is max/min per-server executions (+Inf when a server idles;
	// 1.0 = perfectly even).
	UtilRatio float64
}

// weightedBurstQueries is the hotspot mix: four recurring scan-heavy shapes,
// one per hot table — more hot tables than one buffer pool holds. A
// cache-aware router can pin each shape to a replica whose pool already
// holds its table; blind round-robin sprays the shapes and keeps every pool
// lukewarm. The four-shape period is deliberately coprime with the
// three-server rotation, so round-robin cannot accidentally pin shapes to
// replicas.
var weightedBurstQueries = []string{
	"SELECT SUM(h.h_val) FROM hot1 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot2 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot3 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot4 AS h WHERE h.h_val > 1000",
}

// WeightedRoutingStudy compares the paper's round-robin load distribution
// against the score-based weighted replica router on the replicated hotspot
// scenario: every table fully replicated, servers that heat up under their
// own traffic, and a buffer-pool residency model that rewards routing the
// same shape back to the same replica. Both arms run the identical burst
// under identical calibration cadence.
func WeightedRoutingStudy(opts Options, burst int) ([]WeightedOutcome, error) {
	opts.fill()
	if burst <= 0 {
		burst = 60
	}
	build := scenario.ReplicatedFederations(scenario.ReplicatedOptions{Scale: opts.Scale, Seed: opts.Seed})
	var out []WeightedOutcome
	for _, arm := range weightedArms {
		m, err := runWeightedBurst(build, arm.routing, burst, nil)
		if err != nil {
			return nil, fmt.Errorf("weighted study %s: %w", arm.policy, err)
		}
		r := m.row("weighted", arm.policy)
		used, maxShare, ratio := spread(r.Executions)
		out = append(out, WeightedOutcome{
			Policy:      arm.policy,
			AvgMS:       r.MeanMS,
			P50MS:       r.P50MS,
			P95MS:       r.P95MS,
			P99MS:       r.P99MS,
			ServersUsed: used,
			MaxShare:    maxShare,
			UtilRatio:   ratio,
		})
	}
	return out, nil
}

// runWeightedBurst runs the hotspot burst under one routing policy on a fresh
// federation, checking rows against o when it is set.
func runWeightedBurst(build func() (*scenario.Scenario, error), routing router.Policy, burst int, o *oracle) (*meter, error) {
	sc, err := build()
	if err != nil {
		return nil, err
	}
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Routing:        routing,
		DisableDaemons: true,
	}, sc.II)
	m := newMeter(sc, passThrough(sc), o)
	for i := 0; i < burst; i++ {
		sql := weightedBurstQueries[i%len(weightedBurstQueries)]
		res, err := sc.II.Query(sql)
		if err := m.add(sql, res, err); err != nil {
			return nil, err
		}
		// Both arms publish every query: calibration freshness is identical,
		// only the routing policy differs.
		q.PublishNow()
	}
	return m, nil
}

// spread summarizes per-server execution counts: how many servers executed
// anything, the largest share of the executions, and max/min (+Inf when a
// server idled; 1 is perfectly even).
func spread(execs map[string]int64) (used int, maxShare, ratio float64) {
	maxExec, minExec := int64(0), int64(math.MaxInt64)
	var total int64
	for _, n := range execs {
		total += n
		if n > 0 {
			used++
		}
		maxExec, minExec = max(maxExec, n), min(minExec, n)
	}
	if total > 0 {
		maxShare = float64(maxExec) / float64(total)
	}
	ratio = math.Inf(1)
	if minExec > 0 {
		ratio = float64(maxExec) / float64(minExec)
	}
	return used, maxShare, ratio
}

// FormatWeightedRoutingStudy renders the replica-routing comparison.
func FormatWeightedRoutingStudy(outcomes []WeightedOutcome) string {
	out := "Weighted replica routing — hotspot burst over fully replicated tables\n"
	out += "  policy        avg(ms)   p50(ms)   p95(ms)   p99(ms)  servers  max share  util ratio\n"
	for _, o := range outcomes {
		ratio := fmt.Sprintf("%.2f", o.UtilRatio)
		if math.IsInf(o.UtilRatio, 1) {
			ratio = "inf"
		}
		out += fmt.Sprintf("  %-11s %9.1f %9.1f %9.1f %9.1f  %7d  %8.0f%%  %10s\n",
			o.Policy, o.AvgMS, o.P50MS, o.P95MS, o.P99MS, o.ServersUsed, o.MaxShare*100, ratio)
	}
	return out
}

// percentile returns the element at index ⌊p·(n−1)⌋ of the sorted sample (0
// for an empty one).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// FormatLoadBalanceStudy renders the §4 study.
func FormatLoadBalanceStudy(outcomes []LBOutcome) string {
	out := "Load distribution study — burst of identical queries, servers heat up under traffic\n"
	out += "  policy      avg(ms)    p95(ms)  servers  max share\n"
	for _, o := range outcomes {
		out += fmt.Sprintf("  %-9s %9.1f %10.1f  %7d  %8.0f%%\n",
			o.Mode, o.AvgMS, o.P95MS, o.ServersUsed, o.MaxShare*100)
	}
	return out
}
