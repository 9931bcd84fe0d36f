// Package qcc implements the paper's primary contribution: the Query Cost
// Calibrator. QCC attaches to the meta-wrapper and the integrator and
//
//   - learns per-server and per-(server, fragment) cost calibration factors
//     from (estimated cost, observed response time) pairs (§3.1);
//   - maintains an II-level workload calibration factor (§3.2);
//   - probes source availability with daemon programs and fences off down
//     servers by calibrating their costs to +Inf (§3.3);
//   - dynamically adjusts its recalibration cycle from factor drift (§3.4);
//   - folds a reliability factor from observed errors into the calibrated
//     cost (§2, §3.5); and
//   - recommends round-robin plan rotations for load distribution at the
//     fragment and global levels (§4), deriving alternative global plans
//     with a simulated (statistics-only) federated system (§2, §4.2).
//
// QCC never modifies the optimizer: it only adjusts the costs the optimizer
// sees, exactly as the paper's transparent design prescribes.
package qcc

import (
	"math"
	"sort"
	"sync"

	"repro/internal/metawrapper"
	"repro/internal/ring"
	"repro/internal/simclock"
)

// The calibration window (§3.1): a factor averages at most the newest
// calibrationWindow observations of its history, and none older than
// calibrationMaxAge simulated ms — the expiry is what lets factors track
// load changes.
const (
	calibrationWindow = 64
	calibrationMaxAge = simclock.Time(120000)
)

// fileSeedMultiplier scales a probe round-trip into the initial cost seed of
// a fragment whose source offers no estimate (a file) and has never run.
const fileSeedMultiplier = 20

// samplePair is one (estimated, observed) observation.
type samplePair struct {
	at       simclock.Time
	est, obs float64
}

// history is a time-windowed series of observation pairs, oldest first. The
// calibration factor is the ratio of the average runtime cost to the average
// estimated cost over the window, exactly as §3.1 defines it.
type history struct{ ring.Ring[samplePair] }

func newHistory() *history { return &history{*ring.New[samplePair](calibrationWindow)} }

func (h *history) add(at simclock.Time, est, obs float64) {
	h.Push(samplePair{at: at, est: est, obs: obs})
}

// prune drops the samples older than calibrationMaxAge.
func (h *history) prune(now simclock.Time) {
	cut := 0
	for cut < h.Len() && now-h.At(cut).at > calibrationMaxAge {
		cut++
	}
	h.Drop(cut)
}

// factor returns (avg observed / avg estimated, sample count).
func (h *history) factor(now simclock.Time) (float64, int) {
	h.prune(now)
	var sumEst, sumObs float64
	n := 0
	for i := range h.Len() {
		s := h.At(i)
		if s.est <= 0 {
			continue
		}
		sumEst += s.est
		sumObs += s.obs
		n++
	}
	if n == 0 || sumEst <= 0 {
		return 1, 0
	}
	return sumObs / sumEst, n
}

// meanObserved returns the average observed value (for cost seeding of
// sources without estimates) and the sample count.
func (h *history) meanObserved(now simclock.Time) (float64, int) {
	h.prune(now)
	if h.Len() == 0 {
		return 0, 0
	}
	var sum float64
	for i := range h.Len() {
		sum += h.At(i).obs
	}
	return sum / float64(h.Len()), h.Len()
}

// CalibrationConfig tunes the calibration store.
type CalibrationConfig struct {
	// PerFragment enables per-(server, fragment) factors on top of the
	// per-server factor. The granularity ablation turns it off to quantify
	// its contribution.
	PerFragment bool
}

// Calibration is the factor store. Factors become visible to the optimizer
// only when published — the paper's calibration cycle (§3.4).
type Calibration struct {
	mu  sync.Mutex
	cfg CalibrationConfig

	perServer   map[string]*history
	perFragment map[metawrapper.FragmentKey]*history
	// perServerFirst tracks (estimated, observed) time-to-first-row pairs.
	// Streaming execution observes the first batch's arrival separately from
	// the total response, so FirstTupleMS gets its own correction instead of
	// inheriting the total-time factor.
	perServerFirst map[string]*history
	// fileSeeds records observed costs of fragments whose wrappers provide
	// no estimate, keyed by fragment.
	fileSeeds map[metawrapper.FragmentKey]*history
	ii        *history

	// probeBaseline and probeLatest drive the probe-derived fallback factor:
	// baseline is the smallest probe time seen (the calm reference), latest
	// the most recent observation.
	probeBaseline map[string]float64
	probeLatest   map[string]float64

	// published snapshots, refreshed by Publish.
	pubServer      map[string]float64
	pubServerFirst map[string]float64
	pubFragment    map[metawrapper.FragmentKey]float64
	pubII          float64
	pubProbe       map[string]float64
	publishes      int64

	// hook receives each publish's factor snapshot (telemetry timelines).
	hook PublishHook
}

// PublishHook receives the effective per-server factors and the II workload
// factor each time Publish runs. It is invoked AFTER the calibration lock is
// released — implementations may freely call back into the store.
type PublishHook func(at simclock.Time, serverFactors map[string]float64, iiFactor float64)

// NewCalibration builds a calibration store.
func NewCalibration(cfg CalibrationConfig) *Calibration {
	return &Calibration{
		cfg:            cfg,
		perServer:      map[string]*history{},
		perFragment:    map[metawrapper.FragmentKey]*history{},
		perServerFirst: map[string]*history{},
		fileSeeds:      map[metawrapper.FragmentKey]*history{},
		ii:             newHistory(),
		probeBaseline:  map[string]float64{},
		probeLatest:    map[string]float64{},
		pubServer:      map[string]float64{},
		pubServerFirst: map[string]float64{},
		pubFragment:    map[metawrapper.FragmentKey]float64{},
		pubII:          1,
		pubProbe:       map[string]float64{},
	}
}

// RecordRun ingests one fragment execution observation.
func (c *Calibration) RecordRun(at simclock.Time, key metawrapper.FragmentKey, est, obs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if est <= 0 {
		// No wrapper estimate (file source): feed the seed store instead.
		historyOf(c.fileSeeds, key).add(at, 0, obs)
		return
	}
	historyOf(c.perServer, key.ServerID).add(at, est, obs)
	if c.cfg.PerFragment {
		historyOf(c.perFragment, key).add(at, est, obs)
	}
}

// historyOf returns the history m keeps for k, created on first use.
func historyOf[K comparable](m map[K]*history, k K) *history {
	h := m[k]
	if h == nil {
		h = newHistory()
		m[k] = h
	}
	return h
}

// RecordFirstRow ingests one (estimated first-tuple, observed first-row)
// pair for a server. Streaming fragments report this alongside the total
// observation so the two latency components calibrate independently.
func (c *Calibration) RecordFirstRow(at simclock.Time, serverID string, est, obs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if est > 0 {
		historyOf(c.perServerFirst, serverID).add(at, est, obs)
	}
}

// RecordII ingests one II merge observation (§3.2).
func (c *Calibration) RecordII(at simclock.Time, est, obs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if est <= 0 {
		return
	}
	c.ii.add(at, est, obs)
}

// RecordProbe ingests an availability-daemon probe time.
func (c *Calibration) RecordProbe(serverID string, rtt float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if base, ok := c.probeBaseline[serverID]; !ok || rtt < base {
		c.probeBaseline[serverID] = rtt
	}
	c.probeLatest[serverID] = rtt
}

// SetPublishHook installs (or clears, with nil) the per-publish snapshot
// hook.
func (c *Calibration) SetPublishHook(h PublishHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// Publish recomputes the published factors from current histories and
// returns the maximum relative drift across servers — the signal the cycle
// controller adapts on (§3.4).
func (c *Calibration) Publish(now simclock.Time) float64 {
	c.mu.Lock()
	c.publishes++
	maxDrift := 0.0
	for id, h := range c.perServer {
		f, n := h.factor(now)
		if n == 0 {
			f = c.probeFactorLocked(id)
		}
		if prev, ok := c.pubServer[id]; ok && prev > 0 {
			maxDrift = max(maxDrift, math.Abs(f-prev)/prev)
		}
		c.pubServer[id] = f
	}
	// A stale first-row or fragment factor is withdrawn: FirstRowFactor and
	// FragmentFactor fall back to the combined and per-server factors.
	publishFresh(c.pubServerFirst, c.perServerFirst, now)
	publishFresh(c.pubFragment, c.perFragment, now)
	f, n := c.ii.factor(now)
	if n > 0 {
		c.pubII = f
	}
	for id := range c.probeLatest {
		c.pubProbe[id] = c.probeFactorLocked(id)
	}
	// Snapshot for the hook while locked, invoke after unlocking: the hook
	// may read ServerFactor and friends, which take this lock.
	hook := c.hook
	var snap map[string]float64
	var iiFactor float64
	if hook != nil {
		snap = make(map[string]float64, len(c.pubServer)+len(c.pubProbe))
		for id := range c.pubServer {
			snap[id] = c.serverFactorLocked(id)
		}
		for id := range c.pubProbe {
			if _, ok := snap[id]; !ok {
				snap[id] = c.serverFactorLocked(id)
			}
		}
		iiFactor = c.pubII
	}
	c.mu.Unlock()
	if hook != nil {
		hook(now, snap, iiFactor)
	}
	return maxDrift
}

// publishFresh publishes the factor of every history with a fresh sample and
// withdraws the others.
func publishFresh[K comparable](pub map[K]float64, hs map[K]*history, now simclock.Time) {
	for k, h := range hs {
		if f, n := h.factor(now); n > 0 {
			pub[k] = f
		} else {
			delete(pub, k)
		}
	}
}

// Publishes returns how many publish cycles have run.
func (c *Calibration) Publishes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.publishes
}

func (c *Calibration) probeFactorLocked(serverID string) float64 {
	base := c.probeBaseline[serverID]
	latest := c.probeLatest[serverID]
	if base <= 0 || latest <= 0 {
		return 1
	}
	f := latest / base
	if f < 1 {
		f = 1
	}
	return f
}

// FragmentFactor returns the published factor for a fragment on a server:
// the per-fragment factor when fresh, else the per-server factor, else 1.
// The probe-derived factor additionally acts as a FLOOR: query-history
// factors go stale the moment conditions change (no new observations arrive
// for servers the router avoids, and old ones linger until they age out),
// while the availability daemon's probes always reflect the network and
// queueing conditions of the last probe cycle. Any sensor showing distress
// raises the calibrated cost; the probe's recovery is immediate.
func (c *Calibration) FragmentFactor(key metawrapper.FragmentKey) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	factor := 1.0
	found := false
	if c.cfg.PerFragment {
		if f, ok := c.pubFragment[key]; ok {
			factor, found = f, true
		}
	}
	if !found {
		if f, ok := c.pubServer[key.ServerID]; ok {
			factor, found = f, true
		}
	}
	if probe, ok := c.pubProbe[key.ServerID]; ok && probe > factor {
		factor = probe
	}
	return factor
}

// FirstRowFactor returns the published time-to-first-row factor for a
// server and whether one is available. Callers fall back to the combined
// fragment factor when no streaming observations have been published.
func (c *Calibration) FirstRowFactor(serverID string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.pubServerFirst[serverID]
	return f, ok
}

// ServerFactor returns the published per-server factor (1 when unknown).
func (c *Calibration) ServerFactor(serverID string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverFactorLocked(serverID)
}

func (c *Calibration) serverFactorLocked(serverID string) float64 {
	if f, ok := c.pubServer[serverID]; ok {
		return f
	}
	if f, ok := c.pubProbe[serverID]; ok {
		return f
	}
	return 1
}

// IIFactor returns the published workload calibration factor.
func (c *Calibration) IIFactor() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pubII
}

// SeedEstimate returns a cost seed for a fragment whose source offers no
// estimate: the mean observed cost of past runs, or the server's probe time
// scaled by fileSeedMultiplier when the fragment has never run.
func (c *Calibration) SeedEstimate(now simclock.Time, key metawrapper.FragmentKey) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.fileSeeds[key]; ok {
		if mean, n := h.meanObserved(now); n > 0 {
			return mean
		}
	}
	if latest := c.probeLatest[key.ServerID]; latest > 0 {
		return latest * fileSeedMultiplier
	}
	return 0
}

// KnownServers lists servers with any published state, sorted.
func (c *Calibration) KnownServers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := map[string]bool{}
	for id := range c.pubServer {
		set[id] = true
	}
	for id := range c.pubProbe {
		set[id] = true
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
