// traffic.go is the production traffic simulator: arrival-process generators
// on virtual time (open-loop Poisson, bursty on/off MMPP, heavy-tailed Pareto
// think times, diurnal rate curves) composed into replayable seeded tenant
// mixes, replayed on the virtual clock alone.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/admission"
	"repro/internal/simclock"
)

// ArrivalProcess generates the arrival instants of one traffic stream: an
// increasing sequence of virtual-millisecond times in [0, horizon). Every
// draw comes from the supplied rng, so a stream replays identically for the
// same seed.
type ArrivalProcess interface {
	Times(r *rand.Rand, horizon simclock.Time) []simclock.Time
}

// Poisson is an open-loop Poisson arrival process: independent exponential
// gaps with mean 1000/RatePerSec virtual milliseconds.
type Poisson struct {
	// RatePerSec is the arrival rate in queries per virtual second.
	RatePerSec float64
}

// Times implements ArrivalProcess.
func (p Poisson) Times(r *rand.Rand, horizon simclock.Time) []simclock.Time {
	if p.RatePerSec <= 0 {
		return nil
	}
	mean := 1000 / p.RatePerSec
	var out []simclock.Time
	t := 0.0
	for {
		t += r.ExpFloat64() * mean
		if t >= float64(horizon) {
			return out
		}
		out = append(out, simclock.Time(t))
	}
}

// OnOff is a two-state Markov-modulated Poisson process (MMPP): the stream
// alternates between an ON state emitting at BurstRatePerSec and an OFF state
// emitting at BaseRatePerSec, with exponentially distributed holding times.
// It models bursty tenants — batch jobs, retry storms, fan-out spikes.
type OnOff struct {
	// BurstRatePerSec is the arrival rate while ON.
	BurstRatePerSec float64
	// BaseRatePerSec is the arrival rate while OFF (zero silences the stream
	// between bursts).
	BaseRatePerSec float64
	// MeanOnMS and MeanOffMS are the mean holding times of the two states in
	// virtual milliseconds.
	MeanOnMS  float64
	MeanOffMS float64
}

// Times implements ArrivalProcess. The stream starts OFF, so the first burst
// arrives after one exponential OFF period.
func (p OnOff) Times(r *rand.Rand, horizon simclock.Time) []simclock.Time {
	var out []simclock.Time
	now, on := 0.0, false
	for now < float64(horizon) {
		hold, rate := p.MeanOffMS, p.BaseRatePerSec
		if on {
			hold, rate = p.MeanOnMS, p.BurstRatePerSec
		}
		end := now + r.ExpFloat64()*hold
		if rate > 0 {
			mean := 1000 / rate
			for t := now + r.ExpFloat64()*mean; t < end && t < float64(horizon); t += r.ExpFloat64() * mean {
				out = append(out, simclock.Time(t))
			}
		}
		now = end
		on = !on
	}
	return out
}

// Pareto is a heavy-tailed renewal process: gaps are Pareto(Alpha) with
// scale MinGapMS, so most arrivals cluster tightly while occasional think
// times stretch far into the tail — the classic shape of human sessions.
type Pareto struct {
	// Alpha is the tail index; values in (1, 2] give a finite mean with an
	// infinite variance. Zero or negative defaults to 1.5.
	Alpha float64
	// MinGapMS is the scale parameter: the minimum gap between arrivals.
	MinGapMS float64
}

// Times implements ArrivalProcess.
func (p Pareto) Times(r *rand.Rand, horizon simclock.Time) []simclock.Time {
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	min := p.MinGapMS
	if min <= 0 {
		min = 1
	}
	var out []simclock.Time
	t := 0.0
	for {
		// Inverse-CDF: gap = x_m · U^(-1/α).
		t += min * math.Pow(r.Float64(), -1/alpha)
		if t >= float64(horizon) {
			return out
		}
		out = append(out, simclock.Time(t))
	}
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a cosine
// day curve: TroughRatePerSec at time zero rising to PeakRatePerSec half a
// period later and back. Arrivals are drawn by Lewis-Shedler thinning against
// the peak rate.
type Diurnal struct {
	PeakRatePerSec   float64
	TroughRatePerSec float64
	// PeriodMS is the length of one simulated "day" in virtual milliseconds.
	PeriodMS float64
}

func (d Diurnal) rateAt(t float64) float64 {
	if d.PeriodMS <= 0 {
		return d.PeakRatePerSec
	}
	u := (1 - math.Cos(2*math.Pi*t/d.PeriodMS)) / 2
	return d.TroughRatePerSec + (d.PeakRatePerSec-d.TroughRatePerSec)*u
}

// Times implements ArrivalProcess.
func (d Diurnal) Times(r *rand.Rand, horizon simclock.Time) []simclock.Time {
	peak := d.PeakRatePerSec
	if d.TroughRatePerSec > peak {
		peak = d.TroughRatePerSec
	}
	if peak <= 0 {
		return nil
	}
	mean := 1000 / peak
	var out []simclock.Time
	t := 0.0
	for {
		t += r.ExpFloat64() * mean
		if t >= float64(horizon) {
			return out
		}
		if r.Float64()*peak <= d.rateAt(t) {
			out = append(out, simclock.Time(t))
		}
	}
}

// TenantStream is one tenant's traffic in a Mix: an arrival process paired
// with the queries it cycles through and the admission tags they carry.
type TenantStream struct {
	// Tenant and Class tag every query's context (admission.WithTenant /
	// WithClass).
	Tenant string
	Class  string
	// Label names the stream in results (Item.Type); defaults to Tenant.
	Label string
	// Queries is cycled round-robin across the stream's arrivals.
	Queries []string
	// Arrivals generates the stream's arrival instants.
	Arrivals ArrivalProcess
	// MaxQueries truncates the stream (0 = bounded only by the horizon).
	MaxQueries int
}

// Arrival is one scheduled query of a Mix.
type Arrival struct {
	// At is the virtual arrival instant.
	At simclock.Time
	// Stream is the index of the TenantStream that emitted the query.
	Stream int
	Item   Item
}

// Mix is a replayable multi-tenant traffic scenario: seeded tenant streams
// over a common virtual-time horizon. The same Seed always expands to the
// identical arrival sequence.
type Mix struct {
	// Seed derives every stream's private rng; streams are independent, so
	// editing one stream never perturbs another's arrivals.
	Seed int64
	// Horizon bounds arrival instants in virtual milliseconds.
	Horizon simclock.Time
	Streams []TenantStream
}

// streamSeed derives stream i's rng seed from the mix seed (splitmix64
// finalizer, so neighbouring streams get uncorrelated sequences).
func streamSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Schedule expands the mix into its merged, time-ordered arrival sequence.
// Ties preserve stream declaration order, then emission order, so the
// expansion is fully deterministic.
func (m Mix) Schedule() []Arrival {
	var out []Arrival
	for i, s := range m.Streams {
		if s.Arrivals == nil || len(s.Queries) == 0 {
			continue
		}
		r := rand.New(rand.NewSource(streamSeed(m.Seed, i)))
		times := s.Arrivals.Times(r, m.Horizon)
		if s.MaxQueries > 0 && len(times) > s.MaxQueries {
			times = times[:s.MaxQueries]
		}
		label := s.Label
		if label == "" {
			label = s.Tenant
		}
		for k, at := range times {
			out = append(out, Arrival{
				At:     at,
				Stream: i,
				Item: Item{
					Type:   label,
					SQL:    s.Queries[k%len(s.Queries)],
					Class:  s.Class,
					Tenant: s.Tenant,
				},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// MixResult is one Mix replay: the expanded schedule, per-arrival outcomes
// (indexed like the schedule), and their aggregate statistics.
type MixResult struct {
	Arrivals []Arrival
	Results  []PoolResult
	Stats    PoolStats
}

// PoolResult is the outcome of one arrival of a Mix replay.
type PoolResult struct {
	Index        int
	Item         Item
	ResponseTime simclock.Time
	Err          error
}

// PoolClassStats is one admission-class slice of a Mix replay, keyed by the
// item's Class tag ("" for untagged items).
type PoolClassStats struct {
	Completed int
	Failed    int
	// Shed counts failures that were typed admission sheds or rejections
	// (errors.Is ErrAdmissionRejected) — a subset of Failed.
	Shed          int
	TotalResponse simclock.Time
}

// PoolStats aggregates one Mix replay.
type PoolStats struct {
	Completed int
	Failed    int
	// Shed counts the subset of Failed that were typed admission refusals,
	// so shed-rate reports need no log scraping.
	Shed          int
	TotalResponse simclock.Time
	MaxResponse   simclock.Time
	// ByClass breaks completions, failures and sheds out per item class.
	ByClass map[string]PoolClassStats
}

// tallyPool aggregates replay results, classifying typed admission refusals as
// sheds both overall and per item class.
func tallyPool(results []PoolResult) PoolStats {
	stats := PoolStats{ByClass: map[string]PoolClassStats{}}
	for _, r := range results {
		cs := stats.ByClass[r.Item.Class]
		switch {
		case r.Err != nil:
			stats.Failed++
			cs.Failed++
			if errors.Is(r.Err, admission.ErrAdmissionRejected) {
				stats.Shed++
				cs.Shed++
			}
		default:
			stats.Completed++
			cs.Completed++
			stats.TotalResponse += r.ResponseTime
			cs.TotalResponse += r.ResponseTime
			if r.ResponseTime > stats.MaxResponse {
				stats.MaxResponse = r.ResponseTime
			}
		}
		stats.ByClass[r.Item.Class] = cs
	}
	return stats
}

// Serve starts one arrival of a Mix at the current virtual instant. It must
// not block: it reports the query's outcome by calling done exactly once,
// before it returns (a refusal on arrival) or from a clock event it set off (a
// grant's service completing, a queue deadline shedding it).
type Serve func(idx int, item Item, done func(rt simclock.Time, err error))

// ServeAdmitted serves each query through ctrl and holds the slot it is
// granted for cost(item) of virtual time: the service's end is a clock event
// that releases the slot, which grants the next queued query at that instant.
// The response time is the queue wait plus the service.
func ServeAdmitted(ctrl *admission.Controller, clk *simclock.Clock, cost func(Item) float64) Serve {
	return func(_ int, item Item, done func(simclock.Time, error)) {
		service := cost(item)
		req := admission.Request{Query: item.SQL, CostMS: service, Class: item.Class, Tenant: item.Tenant}
		ctrl.Submit(req, func(g *admission.Grant, err error) {
			if err != nil {
				done(0, err)
				return
			}
			clk.ScheduleAfter(simclock.Time(service), func(simclock.Time) {
				g.Release()
				done(g.QueueWait()+simclock.Time(service), nil)
			})
		})
	}
}

// ErrStalled is the outcome of an arrival whose Serve had not called done by
// the time the clock ran out of events: nothing left could ever resolve it.
var ErrStalled = errors.New("workload: mix stalled with the query unresolved")

// RunMix replays the mix on clk as a discrete-event simulation, on the
// calling goroutine alone. Every arrival is a clock event at its instant that
// hands the query to serve, and the replay steps the clock from event to event
// until every arrival has resolved. Arrivals never wait for earlier responses
// — the generator is open-loop, which is what lets overload build real queues
// — and each grant, release and shed happens at the virtual instant of the
// event that caused it. The replay therefore depends on the seed alone: no
// goroutine, scheduler or wall clock takes part. No query is lost: an arrival
// still unresolved when no event is left reports ErrStalled.
//
// RunMix owns clk until it returns; events the caller scheduled before (a
// periodic snapshot, say) fire in their turn. A series that never stops
// (clk.Every) never runs out of events, so beside one only a Serve that
// resolves every query lets RunMix return.
func RunMix(clk *simclock.Clock, m Mix, serve Serve) MixResult {
	arrivals := m.Schedule()
	results := make([]PoolResult, len(arrivals))
	open := len(arrivals)
	for i, a := range arrivals {
		results[i] = PoolResult{Index: i, Item: a.Item, Err: ErrStalled}
		clk.ScheduleAt(a.At, func(simclock.Time) {
			resolved := false
			serve(i, a.Item, func(rt simclock.Time, err error) {
				if resolved {
					panic(fmt.Sprintf("workload: arrival %d resolved twice", i))
				}
				resolved = true
				results[i].ResponseTime, results[i].Err = rt, err
				open--
			})
		})
	}
	for open > 0 {
		at, ok := clk.NextEvent()
		if !ok {
			break
		}
		clk.AdvanceTo(at)
	}
	return MixResult{Arrivals: arrivals, Results: results, Stats: tallyPool(results)}
}
