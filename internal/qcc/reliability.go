package qcc

import (
	"sync"

	"repro/internal/ring"
)

// The reliability factor (§2: "QCC also records error messages ... later
// used to compute the reliability factor for cost calibration", §3.5: "QCC
// also incorporates reliability into the decision process") is
//
//	factor = 1 + reliabilityPenalty · failure rate
//
// over each server's newest reliabilityWindow outcomes: a half-failing
// server looks 3× as expensive.
const (
	reliabilityWindow  = 50
	reliabilityPenalty = 4
)

// Reliability tracks per-server success/failure outcomes and derives the
// reliability factor. This is how QCC makes II "access not only high
// performance but also highly available remote servers" — a fast but flaky
// source is calibrated to look expensive even while it is up.
type Reliability struct {
	mu       sync.Mutex
	outcomes map[string]*ring.Ring[bool] // recent outcomes, true = success
}

// NewReliability builds the tracker.
func NewReliability() *Reliability {
	return &Reliability{outcomes: map[string]*ring.Ring[bool]{}}
}

// RecordSuccess notes a successful interaction with the server.
func (r *Reliability) RecordSuccess(serverID string) { r.record(serverID, true) }

// RecordFailure notes a failed interaction with the server.
func (r *Reliability) RecordFailure(serverID string) { r.record(serverID, false) }

func (r *Reliability) record(serverID string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.outcomes[serverID]
	if w == nil {
		w = ring.New[bool](reliabilityWindow)
		r.outcomes[serverID] = w
	}
	w.Push(ok)
}

// FailureRate returns the recent failure fraction for the server.
func (r *Reliability) FailureRate(serverID string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.outcomes[serverID]
	if w == nil {
		return 0
	}
	fails := 0
	for i := range w.Len() {
		if !*w.At(i) {
			fails++
		}
	}
	return float64(fails) / float64(w.Len())
}

// Factor returns the reliability cost multiplier for the server (>= 1).
func (r *Reliability) Factor(serverID string) float64 {
	return 1 + reliabilityPenalty*r.FailureRate(serverID)
}
