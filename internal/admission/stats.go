package admission

import (
	"sort"

	"repro/internal/simclock"
)

// ClassStats is the per-class slice of a Stats snapshot.
type ClassStats struct {
	// Name identifies the class.
	Name string
	// Running and Queued are instantaneous occupancy.
	Running int
	Queued  int
	// Admitted counts grants; QueuedTotal counts how many of those (plus
	// sheds) actually waited; Held counts enqueues that started held.
	Admitted    int64
	QueuedTotal int64
	Held        int64
	// Shed counts queue-deadline expiries, Rejected immediate refusals
	// (tenant queue full / hopeless holds), Cancelled context cancellations
	// while queued.
	Shed      int64
	Rejected  int64
	Cancelled int64
	// TotalQueueWait accumulates virtual queue wait across all grants.
	TotalQueueWait simclock.Time
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	// Running and Queued are instantaneous totals across classes.
	Running int
	Queued  int
	// Releases counts returned grants.
	Releases int64
	// TenantsEvicted counts idle states of unregistered tenants dropped to
	// keep their number bounded.
	TenantsEvicted int64
	// Classes lists interactive, then batch.
	Classes []ClassStats
}

// TenantStats is one tenant's slice of the controller's accounting.
type TenantStats struct {
	// Name identifies the tenant ("" is the default tenant untagged queries
	// run under once tenancy is enabled).
	Name string
	// Weight is the effective fair-share weight; MaxQueue echoes the
	// tenant's queue bound (0 = unbounded).
	Weight   float64
	MaxQueue int
	// Registered distinguishes RegisterTenant-ed tenants from states
	// auto-created for unregistered context tags.
	Registered bool
	// Running and Queued are instantaneous occupancy.
	Running int
	Queued  int
	// Admitted counts grants; QueuedTotal how many of those actually waited.
	Admitted    int64
	QueuedTotal int64
	// Shed counts queue-deadline expiries, Rejected immediate refusals, Cancelled context cancellations.
	Shed      int64
	Rejected  int64
	Cancelled int64
	// ServedCostMS accumulates the calibrated cost of every grant — the
	// quantity weighted-fair scheduling divides between backlogged tenants.
	ServedCostMS float64
	// TotalQueueWait accumulates virtual queue wait across all grants.
	TotalQueueWait simclock.Time
}

// TenantStats snapshots per-tenant accounting, sorted by descending served
// cost, then name. It is empty until a tenant is registered.
func (c *Controller) TenantStats() []TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantStats, 0, len(c.tenants))
	for name, ts := range c.tenants {
		out = append(out, TenantStats{
			Name:           name,
			Weight:         ts.cfg.weight(),
			MaxQueue:       ts.cfg.MaxQueue,
			Registered:     !ts.auto,
			Running:        ts.running,
			Queued:         ts.queued,
			Admitted:       ts.admitted,
			QueuedTotal:    ts.queuedTotal,
			Shed:           ts.shed,
			Rejected:       ts.rejected,
			Cancelled:      ts.cancelled,
			ServedCostMS:   ts.servedCost,
			TotalQueueWait: ts.waitTotal,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ServedCostMS != out[j].ServedCostMS {
			return out[i].ServedCostMS > out[j].ServedCostMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{
		Running:        c.running,
		Queued:         len(c.queue),
		Releases:       c.releases,
		TenantsEvicted: c.tenantsEvicted,
		Classes:        make([]ClassStats, 0, numClasses),
	}
	for k, t := range c.tallies {
		out.Classes = append(out.Classes, ClassStats{
			Name:           class(k).String(),
			Running:        t.running,
			Queued:         t.queued,
			Admitted:       t.admitted,
			QueuedTotal:    t.queuedTotal,
			Held:           t.held,
			Shed:           t.shed,
			Rejected:       t.rejected,
			Cancelled:      t.cancelled,
			TotalQueueWait: t.waitTotal,
		})
	}
	return out
}
