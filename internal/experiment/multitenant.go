// multitenant.go is the multi-tenant overload study: seeded traffic mixes
// (workload.Mix) replayed through a weighted-fair admission controller as a
// discrete-event simulation, measuring per-tenant latency percentiles,
// served-cost shares, Jain's fairness index and shed rates under saturation.
package experiment

import (
	"errors"
	"fmt"

	"repro/internal/admission"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// mtSnapshotEveryMS is the virtual cadence of the per-tenant accounting
// snapshots fairness is judged on.
const mtSnapshotEveryMS = 250

// MultitenantTenantOutcome is one tenant's slice of a scenario run.
type MultitenantTenantOutcome struct {
	Tenant string  `json:"tenant"`
	Weight float64 `json:"weight"`
	Class  string  `json:"class,omitempty"`
	// Arrivals/Completed/Shed partition the tenant's offered queries; Shed
	// counts typed admission refusals (tenant queue bounds or class congestion).
	Arrivals  int     `json:"arrivals"`
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`
	// End-to-end latency mean and percentiles (queue wait + service) over
	// the tenant's completed queries, in virtual milliseconds.
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	// ContendedServedMS is the tenant's cumulative served cost at the last
	// snapshot where every tenant was still backlogged — the instant fair
	// shares are judged at; ServedShare normalizes it across tenants.
	ContendedServedMS float64 `json:"contended_served_ms,omitempty"`
	ServedShare       float64 `json:"served_share,omitempty"`
	// TotalServedMS is the tenant's served cost over the whole run.
	TotalServedMS float64 `json:"total_served_ms"`
}

// MultitenantOutcome is one scenario of the study.
type MultitenantOutcome struct {
	Scenario string `json:"scenario"`
	// GlobalCap is the controller's concurrency cap; OverloadFactor is the
	// offered service demand as a multiple of the cap's service capacity.
	GlobalCap      int     `json:"global_cap"`
	OverloadFactor float64 `json:"overload_factor"`
	HorizonMS      float64 `json:"horizon_ms"`
	Arrivals       int     `json:"arrivals"`
	Completed      int     `json:"completed"`
	Shed           int     `json:"shed"`
	// Lost counts queries that vanished without a typed outcome — always
	// zero under the no-query-lost invariant.
	Lost int `json:"lost"`
	// JainIndex is Jain's fairness index over the tenants'
	// weight-normalized contended served costs (1.0 = perfectly fair).
	JainIndex float64 `json:"jain_index,omitempty"`
	// ServedRatio is the contended served-cost ratio of the first tenant to
	// the last (the weighted scenario's 3:1 acceptance metric).
	ServedRatio float64 `json:"served_ratio,omitempty"`
	// Isolation metrics: the light tenant's p95 alone vs beside the heavy
	// tenant, and their ratio (the <=1.5x acceptance metric).
	BaselineP95MS     float64                    `json:"baseline_p95_ms,omitempty"`
	ContendedP95MS    float64                    `json:"contended_p95_ms,omitempty"`
	IsolationP95Ratio float64                    `json:"isolation_p95_ratio,omitempty"`
	Tenants           []MultitenantTenantOutcome `json:"tenants"`
}

// MultitenantStudyResult is the full study.
type MultitenantStudyResult struct {
	Seed      int64                `json:"seed"`
	Scenarios []MultitenantOutcome `json:"scenarios"`
}

// mtScenario describes one replayable overload scenario.
type mtScenario struct {
	name     string
	policy   admission.Policy
	tenants  []admission.Tenant
	streams  []workload.TenantStream
	horizon  simclock.Time
	seed     int64
	overload float64
	// costMS is each tenant's per-query service cost in virtual ms.
	costMS map[string]float64
}

// mtRun is one scenario replay: the mix outcome plus the served-cost map at
// the last snapshot where every tenant was backlogged.
type mtRun struct {
	res       workload.MixResult
	contended map[string]float64
}

// runMTScenario replays the scenario as a discrete-event simulation: every
// query is admitted through a weighted-fair controller and occupies its slot
// for the tenant's service cost of virtual time.
func runMTScenario(sc mtScenario) mtRun {
	clk := simclock.New()
	ctrl := admission.New(admission.Config{Clock: clk, Policy: sc.policy})
	for _, t := range sc.tenants {
		ctrl.RegisterTenant(t)
	}
	var contended map[string]float64
	cancel := clk.Every(mtSnapshotEveryMS, func(simclock.Time) simclock.Time {
		served := map[string]float64{}
		for _, ts := range ctrl.TenantStats() {
			if !ts.Registered {
				continue
			}
			if ts.Queued == 0 {
				return 0
			}
			served[ts.Name] = ts.ServedCostMS
		}
		if len(served) == len(sc.tenants) {
			contended = served
		}
		return 0
	})
	defer cancel()

	mix := workload.Mix{Seed: sc.seed, Horizon: sc.horizon, Streams: sc.streams}
	cost := func(item workload.Item) float64 { return sc.costMS[item.Tenant] }
	res := workload.RunMix(clk, mix, workload.ServeAdmitted(ctrl, clk, cost))
	return mtRun{res: res, contended: contended}
}

// mtTenantOutcomes aggregates a run's per-tenant outcomes in the scenario's
// tenant declaration order.
func mtTenantOutcomes(sc mtScenario, run mtRun) []MultitenantTenantOutcome {
	classOf := map[string]string{}
	for _, s := range sc.streams {
		classOf[s.Tenant] = s.Class
	}
	arrivals := map[string]int{}
	completed := map[string]int{}
	shed := map[string]int{}
	lat := map[string][]float64{}
	served := map[string]float64{}
	for i, r := range run.res.Results {
		tenant := run.res.Arrivals[i].Item.Tenant
		arrivals[tenant]++
		switch {
		case r.Err != nil:
			if errors.Is(r.Err, admission.ErrAdmissionRejected) {
				shed[tenant]++
			}
		default:
			completed[tenant]++
			lat[tenant] = append(lat[tenant], float64(r.ResponseTime))
			served[tenant] += sc.costMS[tenant]
		}
	}
	contendedTotal := 0.0
	for _, v := range run.contended {
		contendedTotal += v
	}
	var out []MultitenantTenantOutcome
	for _, t := range sc.tenants {
		ls := lat[t.Name]
		o := MultitenantTenantOutcome{
			Tenant:            t.Name,
			Weight:            t.Weight,
			Class:             classOf[t.Name],
			Arrivals:          arrivals[t.Name],
			Completed:         completed[t.Name],
			Shed:              shed[t.Name],
			MeanMS:            Mean(ls),
			P50MS:             percentile(ls, 0.50),
			P95MS:             percentile(ls, 0.95),
			P99MS:             percentile(ls, 0.99),
			ContendedServedMS: run.contended[t.Name],
			TotalServedMS:     served[t.Name],
		}
		if o.Arrivals > 0 {
			o.ShedRate = float64(o.Shed) / float64(o.Arrivals)
		}
		if contendedTotal > 0 {
			o.ServedShare = o.ContendedServedMS / contendedTotal
		}
		out = append(out, o)
	}
	return out
}

// mtOutcome assembles one scenario's outcome from its run.
func mtOutcome(sc mtScenario, run mtRun) MultitenantOutcome {
	out := MultitenantOutcome{
		Scenario:       sc.name,
		GlobalCap:      sc.policy.MaxConcurrent,
		OverloadFactor: sc.overload,
		HorizonMS:      float64(sc.horizon),
		Arrivals:       len(run.res.Arrivals),
		Completed:      run.res.Stats.Completed,
		Shed:           run.res.Stats.Shed,
		Lost:           len(run.res.Arrivals) - run.res.Stats.Completed - run.res.Stats.Failed,
		Tenants:        mtTenantOutcomes(sc, run),
	}
	// Jain's index over weight-normalized contended served costs.
	if len(run.contended) == len(sc.tenants) && len(sc.tenants) > 0 {
		sum, sumSq := 0.0, 0.0
		for _, t := range sc.tenants {
			x := run.contended[t.Name]
			if w := t.Weight; w > 0 {
				x /= w
			}
			sum += x
			sumSq += x * x
		}
		if sumSq > 0 {
			out.JainIndex = sum * sum / (float64(len(sc.tenants)) * sumSq)
		}
		first := run.contended[sc.tenants[0].Name]
		last := run.contended[sc.tenants[len(sc.tenants)-1].Name]
		if last > 0 {
			out.ServedRatio = first / last
		}
	}
	return out
}

// MultitenantStudy runs the three overload scenarios of the multi-tenant
// workload-management evaluation:
//
//	equal-weights: four weight-1 tenants offering 2x the service capacity;
//	  fairness is Jain's index over served costs while all are backlogged.
//	weighted-3to1: two tenants with 3:1 weights at 2x overload; the served
//	  cost ratio while contended must track the weights, and no query may
//	  be lost (every arrival completes or sheds with a typed error).
//	isolation: a light interactive tenant beside a heavy batch tenant that
//	  floods at 2x capacity under a queue bound; the light tenant's p95 must
//	  not degrade more than 1.5x versus running alone.
//
// Every scenario is a seeded, replayable discrete-event simulation on the
// virtual clock; only opts.Seed perturbs the arrival processes.
func MultitenantStudy(opts Options) (MultitenantStudyResult, error) {
	opts.fill()
	out := MultitenantStudyResult{Seed: opts.Seed}

	// Scenario 1 — equal weights. Capacity is 4 slots / 20ms = 200 q/s;
	// four tenants at 100 q/s each offer 2x that.
	equal := mtScenario{
		name:     "equal-weights",
		policy:   admission.Policy{MaxConcurrent: 4},
		horizon:  6000,
		seed:     opts.Seed,
		overload: 2,
		costMS:   map[string]float64{},
	}
	for _, name := range []string{"t1", "t2", "t3", "t4"} {
		equal.tenants = append(equal.tenants, admission.Tenant{Name: name, Weight: 1})
		equal.costMS[name] = 20
		equal.streams = append(equal.streams, workload.TenantStream{
			Tenant:   name,
			Queries:  []string{"SELECT 1"},
			Arrivals: workload.Poisson{RatePerSec: 100},
		})
	}
	equalRun := runMTScenario(equal)
	if equalRun.contended == nil {
		return out, fmt.Errorf("multitenant equal-weights: no snapshot with all tenants backlogged")
	}
	out.Scenarios = append(out.Scenarios, mtOutcome(equal, equalRun))

	// Scenario 2 — 3:1 weights, identical offered load, 2x overload.
	weighted := mtScenario{
		name:     "weighted-3to1",
		policy:   admission.Policy{MaxConcurrent: 4},
		horizon:  6000,
		seed:     opts.Seed,
		overload: 2,
		costMS:   map[string]float64{"gold": 20, "bronze": 20},
		tenants: []admission.Tenant{
			{Name: "gold", Weight: 3},
			{Name: "bronze", Weight: 1},
		},
	}
	for _, name := range []string{"gold", "bronze"} {
		weighted.streams = append(weighted.streams, workload.TenantStream{
			Tenant:   name,
			Queries:  []string{"SELECT 1"},
			Arrivals: workload.Poisson{RatePerSec: 200},
		})
	}
	weightedRun := runMTScenario(weighted)
	if weightedRun.contended == nil {
		return out, fmt.Errorf("multitenant weighted-3to1: no snapshot with all tenants backlogged")
	}
	out.Scenarios = append(out.Scenarios, mtOutcome(weighted, weightedRun))

	// Scenario 3 — isolation. A light interactive tenant (10 q/s of 30ms
	// queries) runs beside a heavy batch tenant flooding at 2x the 2-slot
	// capacity under a 300-deep queue bound; the baseline replays the same
	// light stream alone (per-stream rngs make its arrivals identical).
	iso := mtScenario{
		name:     "isolation",
		policy:   admission.Policy{MaxConcurrent: 2},
		horizon:  4000,
		seed:     opts.Seed,
		overload: 2,
		costMS:   map[string]float64{"light": 30, "heavy": 10},
		tenants: []admission.Tenant{
			{Name: "light", Weight: 1},
			{Name: "heavy", Weight: 1, MaxQueue: 300},
		},
		streams: []workload.TenantStream{
			{Tenant: "light", Class: admission.ClassInteractive, Queries: []string{"SELECT 1"},
				Arrivals: workload.Poisson{RatePerSec: 10}},
			{Tenant: "heavy", Class: admission.ClassBatch, Queries: []string{"SELECT 2"},
				Arrivals: workload.Poisson{RatePerSec: 400}},
		},
	}
	baseline := iso
	baseline.name = "isolation-baseline"
	baseline.tenants = iso.tenants[:1:1]
	baseline.streams = iso.streams[:1:1]
	baseRun := runMTScenario(baseline)
	isoRun := runMTScenario(iso)
	isoOut := mtOutcome(iso, isoRun)
	baseTenants := mtTenantOutcomes(baseline, baseRun)
	if len(baseTenants) > 0 {
		isoOut.BaselineP95MS = baseTenants[0].P95MS
	}
	for _, t := range isoOut.Tenants {
		if t.Tenant == "light" {
			isoOut.ContendedP95MS = t.P95MS
		}
	}
	if isoOut.BaselineP95MS > 0 {
		isoOut.IsolationP95Ratio = isoOut.ContendedP95MS / isoOut.BaselineP95MS
	}
	out.Scenarios = append(out.Scenarios, isoOut)
	return out, nil
}

// multitenantProbe is the study at seed 42, one row per scenario and tenant:
// arrivals, completions, sheds and the latency summary. The backend is
// synthetic — it returns no rows, ships nothing and runs no fragment — so
// those fields stay zero, and so does the first-row time.
func multitenantProbe(name string) ([]ProbeRow, error) {
	res, err := MultitenantStudy(Options{Seed: 42})
	if err != nil {
		return nil, err
	}
	var out []ProbeRow
	for _, sc := range res.Scenarios {
		for _, t := range sc.Tenants {
			out = append(out, ProbeRow{
				Probe:    name,
				Config:   sc.Scenario + " " + t.Tenant,
				Queries:  t.Arrivals,
				MeanMS:   t.MeanMS,
				P50MS:    t.P50MS,
				P95MS:    t.P95MS,
				P99MS:    t.P99MS,
				Admitted: int64(t.Completed),
				Shed:     int64(t.Shed),
			})
		}
	}
	return out, nil
}

// FormatMultitenantStudy renders the per-scenario tenant tables.
func FormatMultitenantStudy(result MultitenantStudyResult) string {
	out := "Multi-tenant overload study — weighted-fair scheduling under 2x saturation\n"
	for _, sc := range result.Scenarios {
		out += fmt.Sprintf("  %s: cap %d, %.0fx overload, %d arrivals, %d completed, %d shed, %d lost",
			sc.Scenario, sc.GlobalCap, sc.OverloadFactor, sc.Arrivals, sc.Completed, sc.Shed, sc.Lost)
		if sc.JainIndex > 0 {
			out += fmt.Sprintf(", Jain %.3f", sc.JainIndex)
		}
		if sc.ServedRatio > 0 {
			out += fmt.Sprintf(", served ratio %.2f", sc.ServedRatio)
		}
		if sc.IsolationP95Ratio > 0 {
			out += fmt.Sprintf(", p95 %.1f→%.1fms (%.2fx)",
				sc.BaselineP95MS, sc.ContendedP95MS, sc.IsolationP95Ratio)
		}
		out += "\n"
		out += "    tenant  weight  arrive  done  shed  p50(vms)  p95(vms)  p99(vms)  share\n"
		for _, t := range sc.Tenants {
			out += fmt.Sprintf("    %-7s %6.1f %7d %5d %5d %9.1f %9.1f %9.1f %6.2f\n",
				t.Tenant, t.Weight, t.Arrivals, t.Completed, t.Shed, t.P50MS, t.P95MS, t.P99MS, t.ServedShare)
		}
	}
	return out
}
