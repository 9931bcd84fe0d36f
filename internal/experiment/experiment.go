// Package experiment implements the paper's §5 evaluation procedure
// (Steps 1–7) over the simulated federation: the query-type load-sensitivity
// study behind Figure 9, the phase-by-phase comparison of QCC-driven dynamic
// routing against the two fixed-assignment baselines behind Table 2 and
// Figures 10 and 11, and the report formatters that print the same rows and
// series the paper shows.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/integrator"
	"repro/internal/qcc"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// Options configures the studies.
type Options struct {
	// Scale divides the paper's table sizes (default 20 → 5000-row large
	// tables); shapes are scale-free, runtime is not.
	Scale int
	// Seed drives data generation.
	Seed int64
	// Instances is the number of instances per query type (default 10).
	Instances int
	// CalibrationPerFragment toggles per-(server,fragment) factors
	// (default true; the granularity ablation turns it off).
	CalibrationPerFragment *bool
}

func (o *Options) fill() {
	if o.Scale < 1 {
		o.Scale = 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Instances <= 0 {
		o.Instances = 10
	}
}

func (o *Options) perFragment() bool {
	if o.CalibrationPerFragment == nil {
		return true
	}
	return *o.CalibrationPerFragment
}

// Servers lists the evaluation servers in display order.
var Servers = []string{"S1", "S2", "S3"}

// SensitivityResult is the Figure 9 data for one query type: per-server
// response times for each instance, under low and high load.
type SensitivityResult struct {
	QT string
	// Low and High map server ID to per-instance response times (ms).
	Low, High map[string][]float64
}

// SensitivityStudy reproduces Figure 9 (§5.2): each query fragment type is
// executed on every server under low load and under heavy load at that
// server, instance by instance. The load's update burst is a write to
// orders, so it reaches every replica; only the load level is the server's.
func SensitivityStudy(opts Options) ([]SensitivityResult, error) {
	opts.fill()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	var out []SensitivityResult
	for _, qt := range workload.Types() {
		res := SensitivityResult{
			QT:   qt.Name,
			Low:  map[string][]float64{},
			High: map[string][]float64{},
		}
		for _, server := range Servers {
			for _, loaded := range []bool{false, true} {
				for _, srv := range sc.Servers {
					srv.SetLoadLevel(0)
				}
				if loaded {
					sc.Servers[server].SetLoadLevel(workload.HeavyLoad)
					if err := workload.WriteNickname(sc, "orders", opts.Seed); err != nil {
						return nil, err
					}
				}
				times := make([]float64, opts.Instances)
				for i := 0; i < opts.Instances; i++ {
					stmt, err := sqlparser.Parse(qt.Make(i))
					if err != nil {
						return nil, err
					}
					rt, err := runOn(sc, server, stmt)
					if err != nil {
						return nil, fmt.Errorf("experiment: %s on %s: %w", qt.Name, server, err)
					}
					times[i] = float64(rt)
				}
				if loaded {
					res.High[server] = times
				} else {
					res.Low[server] = times
				}
			}
		}
		for _, srv := range sc.Servers {
			srv.SetLoadLevel(0)
		}
		out = append(out, res)
	}
	return out, nil
}

// PhaseOutcome is one phase's comparison (Table 2 + Figures 10/11).
type PhaseOutcome struct {
	Phase workload.Phase
	// Average end-user response times over the mixed workload (ms).
	QCCAvgMS, Fixed1AvgMS, Fixed2AvgMS float64
	// Gain1/Gain2 are QCC's fractional improvements over the baselines:
	// (fixed − qcc) / fixed.
	Gain1, Gain2 float64
	// Assignments maps each query type to the server QCC routed it to most
	// often during the phase — the dynamic column of Table 2.
	Assignments map[string]string
	// PerType average response times per query type under each policy.
	PerTypeQCC, PerTypeFixed1, PerTypeFixed2 map[string]float64
}

// GainStudy reproduces Table 2 and Figures 10–11: for each Table 1 phase it
// measures the mixed workload under (a) QCC dynamic routing, (b) fixed
// assignment 1 (the "typical federated system" registration), and (c) fixed
// assignment 2 (always the most powerful server, S3).
func GainStudy(opts Options) ([]PhaseOutcome, error) {
	opts.fill()
	build := scenario.ThreeServerFederations(scenario.Options{Scale: opts.Scale, Seed: opts.Seed})
	var out []PhaseOutcome
	for _, phase := range workload.Phases() {
		apply := func(sc *scenario.Scenario) error { return workload.ApplyPhase(sc, phase, opts.Seed) }
		qccAvg, perTypeQCC, assign, err := runQCC(opts, build, opts.perFragment(), apply)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s qcc: %w", phase.Name, err)
		}
		f1Avg, perTypeF1, _, err := runPinned(opts, build, apply, workload.FixedAssignment1())
		if err != nil {
			return nil, fmt.Errorf("experiment: %s fixed1: %w", phase.Name, err)
		}
		f2Avg, perTypeF2, _, err := runPinned(opts, build, apply, workload.FixedAssignment2())
		if err != nil {
			return nil, fmt.Errorf("experiment: %s fixed2: %w", phase.Name, err)
		}
		out = append(out, PhaseOutcome{
			Phase:         phase,
			QCCAvgMS:      qccAvg,
			Fixed1AvgMS:   f1Avg,
			Fixed2AvgMS:   f2Avg,
			Gain1:         gain(f1Avg, qccAvg),
			Gain2:         gain(f2Avg, qccAvg),
			Assignments:   assign,
			PerTypeQCC:    perTypeQCC,
			PerTypeFixed1: perTypeF1,
			PerTypeFixed2: perTypeF2,
		})
	}
	return out, nil
}

func gain(fixed, qccAvg float64) float64 {
	if fixed <= 0 {
		return 0
	}
	return (fixed - qccAvg) / fixed
}

// runQCC builds a fresh federation with QCC attached, lets setup put the
// condition under study on it, runs the calibration sweep (§5.1 Steps 2–4:
// forward each fragment type to every server and observe), then measures the
// mixed workload.
func runQCC(opts Options, build func() (*scenario.Scenario, error), perFragment bool, setup func(*scenario.Scenario) error) (float64, map[string]float64, map[string]string, error) {
	sc, err := build()
	if err != nil {
		return 0, nil, nil, err
	}
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Calibration:    qcc.CalibrationConfig{PerFragment: perFragment},
		DisableDaemons: true,
	}, sc.II)
	if err := setup(sc); err != nil {
		return 0, nil, nil, err
	}
	if err := CalibrationSweep(sc, 0); err != nil {
		return 0, nil, nil, err
	}
	q.ProbeNow()
	q.PublishNow()
	return runMix(sc, opts, nil)
}

// runOn explains the statement on one server and executes the first plan
// offered store-and-forward — one monolithic batch, the paper's fragment
// model — so MW observes an (estimated, observed) pair. It returns the
// observed response time.
func runOn(sc *scenario.Scenario, server string, stmt *sqlparser.SelectStmt) (simclock.Time, error) {
	cands, err := sc.MW.ExplainFragment(server, stmt)
	if err != nil {
		return 0, fmt.Errorf("explain: %w", err)
	}
	sh, err := sc.MW.OpenFragmentStream(context.Background(), server, stmt.String(), cands[0].Plan, cands[0].RawEst, 0)
	if err != nil {
		return 0, fmt.Errorf("execute: %w", err)
	}
	return sh.ResponseTime, nil
}

// CalibrationSweep forwards one instance of each query type to every server
// and executes it, so MW observes (estimated, observed) pairs under the
// current load — §5.1's Steps 2–4.
func CalibrationSweep(sc *scenario.Scenario, instance int) error {
	for _, qt := range workload.Types() {
		stmt, err := sqlparser.Parse(qt.Make(instance))
		if err != nil {
			return err
		}
		for _, server := range Servers {
			if _, err := runOn(sc, server, stmt); err != nil {
				return fmt.Errorf("sweep %s@%s: %w", qt.Name, server, err)
			}
			sc.Clock.Advance(1)
		}
	}
	return nil
}

// runPinned builds a fresh federation, lets setup put the condition under
// study on it and measures the mixed workload with the pre-registered fixed
// routing (nickname-registration-time routing): pin[type] for every query.
func runPinned(opts Options, build func() (*scenario.Scenario, error), setup func(*scenario.Scenario) error, pin map[string]string) (float64, map[string]float64, map[string]string, error) {
	sc, err := build()
	if err != nil {
		return 0, nil, nil, err
	}
	if err := setup(sc); err != nil {
		return 0, nil, nil, err
	}
	return runMix(sc, opts, pin)
}

// runMix measures the uniform mix of opts.Instances per type, each query
// pinned to pin[type] where pin names a server and routed by the federation
// otherwise. It returns the average response time, each type's average and
// each type's modal server.
func runMix(sc *scenario.Scenario, opts Options, pin map[string]string) (avgMS float64, perType map[string]float64, assignments map[string]string, err error) {
	items := workload.UniformMix(opts.Instances)
	perTypeSum := map[string]float64{}
	perTypeN := map[string]int{}
	routed := map[string]map[string]int{}
	total := 0.0
	for _, item := range items {
		res, err := queryOn(sc, pin[item.Type], item.SQL)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("query %s: %w", item.Type, err)
		}
		rt := float64(res.ResponseTime)
		total += rt
		perTypeSum[item.Type] += rt
		perTypeN[item.Type]++
		for _, f := range res.Plan.Fragments {
			if routed[item.Type] == nil {
				routed[item.Type] = map[string]int{}
			}
			routed[item.Type][f.ServerID]++
		}
	}
	perType = map[string]float64{}
	for qt, sum := range perTypeSum {
		perType[qt] = sum / float64(perTypeN[qt])
	}
	assignments = map[string]string{}
	for qt, counts := range routed {
		assignments[qt] = modalServer(counts)
	}
	return total / float64(len(items)), perType, assignments, nil
}

// queryOn runs the statement with every server but target masked during
// compilation, so each of its fragments routes to target; an empty target
// masks nothing.
func queryOn(sc *scenario.Scenario, target, sql string) (*integrator.QueryResult, error) {
	if target == "" {
		return sc.II.Query(sql)
	}
	for _, s := range Servers {
		sc.MW.Mask(s, s != target)
	}
	res, err := sc.II.Query(sql)
	for _, s := range Servers {
		sc.MW.Mask(s, false)
	}
	return res, err
}

func modalServer(counts map[string]int) string {
	best, bestN := "", -1
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// AverageGains summarizes a gain study: mean Gain1 and Gain2 across phases.
func AverageGains(outcomes []PhaseOutcome) (g1, g2 float64) {
	if len(outcomes) == 0 {
		return 0, 0
	}
	for _, o := range outcomes {
		g1 += o.Gain1
		g2 += o.Gain2
	}
	return g1 / float64(len(outcomes)), g2 / float64(len(outcomes))
}
