package fedqcc

import (
	"context"

	"repro/internal/admission"
	"repro/internal/journal"
)

// Re-exported admission types: the workload-management policy surface.
type (
	// AdmissionPolicy is a full admission configuration: a global
	// concurrency cap plus the interactive and batch classes' bounds. The
	// zero value is unlimited: admission disabled.
	AdmissionPolicy = admission.Policy
	// AdmissionClassConfig bounds one workload class (concurrency cap, cost
	// hold, queue deadline).
	AdmissionClassConfig = admission.ClassConfig
	// AdmissionStats is a point-in-time controller snapshot.
	AdmissionStats = admission.Stats
	// AdmissionClassStats is the per-class slice of AdmissionStats.
	AdmissionClassStats = admission.ClassStats
	// AdmissionRejection is the typed error refused queries receive; its
	// Reason is one of cost_hold, queue_timeout and tenant_queue_full. Match
	// it broadly with ErrAdmissionRejected / ErrQueueTimeout / ErrTenantQuota.
	AdmissionRejection = admission.Rejection
	// QueryLogStats snapshots the query log's retention accounting.
	QueryLogStats = journal.QueryStats
	// QueryLogTenantStats is one tenant's slice of QueryLogStats.
	QueryLogTenantStats = journal.TenantStats
	// Tenant configures one registered tenant: its fair-share weight and
	// optional queue bound.
	Tenant = admission.Tenant
	// TenantStats is a point-in-time snapshot of one tenant's admission
	// accounting.
	TenantStats = admission.TenantStats
)

// Typed admission errors. Every refusal matches ErrAdmissionRejected via
// errors.Is; queue-deadline sheds additionally match ErrQueueTimeout (and
// simclock's virtual-deadline sentinel, which every virtual-time deadline
// expiry matches).
var (
	ErrAdmissionRejected = admission.ErrAdmissionRejected
	ErrQueueTimeout      = admission.ErrQueueTimeout
	// ErrTenantQuota additionally matches a refusal by the tenant's own
	// queue bound, so callers can tell tenant-level back-pressure from class
	// congestion.
	ErrTenantQuota = admission.ErrTenantQuota
)

// The two workload class names. A query whose calibrated cost is at most
// 1 000 ms is interactive, any other batch; queued interactive queries are
// admitted before queued batch ones.
const (
	ClassInteractive = admission.ClassInteractive
	ClassBatch       = admission.ClassBatch
)

// WithQueryClass tags a context with an explicit workload-class name: queries
// submitted under it skip cost classification and join that class directly
// (other names fall back to cost classification).
func WithQueryClass(ctx context.Context, class string) context.Context {
	return admission.WithClass(ctx, class)
}

// WithQueryTenant tags a context with the submitting tenant's name: queries
// submitted under it are scheduled by that tenant's fair-share weight,
// bounded by its queue bound, and attributed to it in the query log and
// telemetry. Unregistered names get an implicit weight-1 tenant.
func WithQueryTenant(ctx context.Context, tenant string) context.Context {
	return admission.WithTenant(ctx, tenant)
}

// AdmissionHandle is the public control surface on the federation's
// workload-management subsystem.
type AdmissionHandle struct {
	c *admission.Controller
}

// Admission returns the workload-management handle. The controller is always
// installed; under the default unlimited policy it is a pure pass-through
// with bit-identical behaviour to an engine without admission control.
func (f *Federation) Admission() *AdmissionHandle { return &AdmissionHandle{c: f.adm} }

// Policy returns a copy of the current admission policy.
func (h *AdmissionHandle) Policy() AdmissionPolicy { return h.c.Policy() }

// SetPolicy replaces the admission policy at runtime; queued queries are
// re-resolved against the new class bounds.
func (h *AdmissionHandle) SetPolicy(p AdmissionPolicy) { h.c.SetPolicy(p) }

// Stats snapshots the controller's counters.
func (h *AdmissionHandle) Stats() AdmissionStats { return h.c.Stats() }

// QueueDepth reports how many queries are waiting for admission right now.
func (h *AdmissionHandle) QueueDepth() int { return h.c.QueueDepth() }

// Running reports how many admitted queries hold slots right now.
func (h *AdmissionHandle) Running() int { return h.c.Running() }

// RegisterTenant registers (or reconfigures) a tenant. With at least one
// registered tenant the controller schedules across tenants by weighted fair
// queuing; with none registered behaviour is bit-identical to a
// tenant-unaware controller.
func (h *AdmissionHandle) RegisterTenant(t Tenant) { h.c.RegisterTenant(t) }

// DeregisterTenant removes a registered tenant, reporting whether it was
// registered. Deregistering the last one restores tenant-unaware behaviour.
func (h *AdmissionHandle) DeregisterTenant(name string) bool { return h.c.DeregisterTenant(name) }

// Tenants lists the registered tenant configurations sorted by name.
func (h *AdmissionHandle) Tenants() []Tenant { return h.c.Tenants() }

// TenantStats snapshots per-tenant admission accounting (registered and
// implicitly created tenants), sorted by served cost descending.
func (h *AdmissionHandle) TenantStats() []TenantStats { return h.c.TenantStats() }
