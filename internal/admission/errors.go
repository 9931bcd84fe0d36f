package admission

import (
	"errors"
	"fmt"

	"repro/internal/simclock"
)

// ErrAdmissionRejected is the sentinel every admission refusal matches:
// errors.Is(err, ErrAdmissionRejected) holds whether the query was shed on a
// queue deadline, bounced off its tenant's queue bound, or held on cost with
// no way out.
var ErrAdmissionRejected = errors.New("admission: query rejected")

// ErrQueueTimeout is the sentinel for deadline sheds specifically: a query
// that waited past its class's QueueDeadline matches both ErrQueueTimeout and
// ErrAdmissionRejected (and simclock.ErrDeadline, since the shed is a
// virtual-time deadline expiry like any other).
var ErrQueueTimeout = errors.New("admission: queue deadline exceeded")

// ErrTenantQuota is the sentinel for a query bounced off its tenant's queue
// bound. It also matches ErrAdmissionRejected, so callers can tell "my
// tenant's backlog is full" from "the class queue timed me out" with
// errors.Is alone.
var ErrTenantQuota = errors.New("admission: tenant quota exceeded")

// Rejection reasons: the closed set a *Rejection carries.
const (
	// ReasonCost marks a query held on cost with no queue deadline to ever
	// shed or revisit it — admitting it would park it forever.
	ReasonCost = "cost_hold"
	// ReasonQueueTimeout marks a queued query shed at its QueueDeadline.
	ReasonQueueTimeout = "queue_timeout"
	// ReasonTenantQueueFull marks a query bounced off its tenant's MaxQueue.
	ReasonTenantQueueFull = "tenant_queue_full"
)

// Rejection is the typed error a refused query receives.
type Rejection struct {
	// Class is the workload class the query was classified into.
	Class string
	// Tenant names the tenant the query ran under (empty when the controller
	// is untenanted or the query was untagged).
	Tenant string
	// CostMS is the calibrated estimate the decision keyed on.
	CostMS float64
	// Reason is one of the Reason* constants.
	Reason string
	// Wait is how long the query sat queued before being shed (zero for
	// immediate rejections).
	Wait simclock.Time
}

// Error implements error.
func (r *Rejection) Error() string {
	switch r.Reason {
	case ReasonQueueTimeout:
		return fmt.Sprintf("admission: %s query shed after queueing %s (est %.3fms)", r.Class, r.Wait, r.CostMS)
	case ReasonTenantQueueFull:
		return fmt.Sprintf("admission: tenant %q queue full (%s, est %.3fms)", r.Tenant, r.Class, r.CostMS)
	default:
		return fmt.Sprintf("admission: %s query held on cost with no queue deadline (est %.3fms)", r.Class, r.CostMS)
	}
}

// Unwrap makes every rejection errors.Is-match ErrAdmissionRejected; deadline
// sheds additionally match ErrQueueTimeout and simclock.ErrDeadline, and
// tenant queue-bound refusals additionally match ErrTenantQuota.
func (r *Rejection) Unwrap() []error {
	switch r.Reason {
	case ReasonQueueTimeout:
		return []error{ErrAdmissionRejected, ErrQueueTimeout, simclock.ErrDeadline}
	case ReasonTenantQueueFull:
		return []error{ErrAdmissionRejected, ErrTenantQuota}
	}
	return []error{ErrAdmissionRejected}
}
