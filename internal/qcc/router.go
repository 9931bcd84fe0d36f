package qcc

import (
	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/router"
)

// SetRouting builds the route policy over this QCC's signals — the one place
// a router.Router is constructed — and installs it as the integrator's
// router, replacing whatever routed before. The counters start at zero, and
// installing clears the plan cache, whose entries hold each statement's
// rotation turn, so every statement starts over at its winner. Its decisions
// go to the integrator's journal.
func (q *QCC) SetRouting(ii *integrator.II, p router.Policy) {
	q.Router = router.New(router.Config{
		Policy:    p,
		Signals:   q.RouterSignals(),
		MW:        q.mw,
		Optimizer: ii.Optimizer(),
		Clock:     q.clock,
		Journal:   ii.Journal(),
		Telemetry: q.tel,
	})
	ii.SetRouter(q.Router)
}

// RouterSignals exposes QCC's learned state as the signal bundle the
// router scores replicas from: calibration and first-row
// factors (cpu/load), reliability and fence state plus admission queue depth
// (memory/pressure), and the meta-wrapper's buffer-pool residency estimates
// (cache locality). The returned funcs read live state — the router always
// scores current factors, never a snapshot.
func (q *QCC) RouterSignals() router.Signals {
	return router.Signals{
		FragmentFactor: func(serverID, sig string) float64 {
			return q.Calib.FragmentFactor(metawrapper.FragmentKey{ServerID: serverID, Signature: sig})
		},
		FirstRowFactor: func(serverID string) (float64, bool) {
			return q.Calib.FirstRowFactor(serverID)
		},
		Reliability: func(serverID string) float64 {
			return q.Rel.Factor(serverID)
		},
		IsFenced: func(serverID string) bool {
			return q.Avail.IsDown(serverID)
		},
		QueueDepth: q.queueDepth,
		CacheResidency: func(serverID string, tables []string) float64 {
			return q.mw.CacheResidency(serverID, tables)
		},
	}
}
