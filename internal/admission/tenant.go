package admission

import (
	"sort"

	"repro/internal/simclock"
)

// Tenant configures one tenant of the federation: a named traffic source
// with a fair-share weight and an optional queue bound. Registering at least
// one tenant switches the controller into tenanted scheduling; with none
// registered the controller behaves bit-for-bit as before tenancy existed.
type Tenant struct {
	// Name identifies the tenant; context tags (WithTenant), stats and log
	// entries key on it. The empty name configures the default tenant that
	// untagged queries run under.
	Name string
	// Weight is the tenant's fair share. Under saturation, two backlogged
	// tenants with weights 3 and 1 are served cost in a ~3:1 ratio. Zero or
	// negative means 1.
	Weight float64
	// MaxQueue caps how many of this tenant's queries may wait, across both
	// classes; arrivals beyond it are rejected immediately with a rejection
	// matching ErrTenantQuota (0 = unbounded).
	MaxQueue int
}

// weight is the effective fair-share weight.
func (t Tenant) weight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// minFairCost floors the cost a grant charges against its tenant's fair-share
// tag, so zero-cost estimates still advance virtual time.
const minFairCost = 1.0

// tenantState is the controller's per-tenant accounting: configuration,
// start-time-fair-queuing tags, and counters.
type tenantState struct {
	cfg  Tenant
	auto bool // lazily created for an unregistered tag, not via RegisterTenant
	// lastSeen orders auto states by their latest arrival, for eviction.
	lastSeen int64

	// tag is the tenant's next fair-queuing start tag per class: each grant
	// sets tag = max(tag, class virtual time) + cost/weight.
	tag [numClasses]float64

	running int
	queued  int

	admitted    int64
	queuedTotal int64
	shed        int64
	rejected    int64
	cancelled   int64
	servedCost  float64
	waitTotal   simclock.Time
}

// RegisterTenant adds (or reconfigures) a tenant. The first registration
// switches the controller into tenanted scheduling: every admission flows
// through the fair queue, untagged queries run under the default tenant, and
// weights and queue bounds take effect. Re-registering an existing name replaces
// its configuration but keeps its counters and fair-queue position.
func (c *Controller) RegisterTenant(t Tenant) {
	c.mu.Lock()
	wasTenanted := c.tenanted
	ts := c.tenants[t.Name]
	if ts == nil {
		ts = &tenantState{cfg: t}
		c.tenants[t.Name] = ts
	} else {
		ts.cfg = t
		ts.auto = false
	}
	c.tenanted = true
	if !wasTenanted {
		// Waiters queued before tenancy was enabled join the default tenant
		// so fair-queue selection sees a tenant on every waiter.
		for _, w := range c.queue {
			if w.tenant == nil {
				w.tenant = c.tenantStateLocked("")
				w.tenant.queued++
			}
		}
	}
	c.drainLocked()
	c.unlock()
}

// DeregisterTenant removes a tenant from the registry, reporting whether it
// was registered. Its queued and running queries keep their accounting.
// Removing the last registered tenant returns the controller to untenanted
// scheduling (and, under an unlimited policy, the pure pass-through path).
func (c *Controller) DeregisterTenant(name string) bool {
	c.mu.Lock()
	ts, ok := c.tenants[name]
	if ok && !ts.auto {
		delete(c.tenants, name)
	} else {
		ok = false
	}
	registered := false
	for _, t := range c.tenants {
		if !t.auto {
			registered = true
			break
		}
	}
	if !registered {
		c.tenanted = false
	}
	c.drainLocked()
	c.unlock()
	return ok
}

// Tenants lists the registered tenant configurations, sorted by name.
func (c *Controller) Tenants() []Tenant {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Tenant, 0, len(c.tenants))
	for _, ts := range c.tenants {
		if !ts.auto {
			out = append(out, ts.cfg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxAutoTenants bounds the auto states the controller keeps for
// unregistered tags once none of them has work in it.
const maxAutoTenants = 32

// tenantStateLocked resolves (lazily creating) the state for a tenant name.
// Unregistered names — including the blank default — get an auto state with
// weight 1 and no queue bound, so scheduling stays uniform across all waiters.
// Creating one past maxAutoTenants evicts the least recently seen auto states
// with nothing queued or running; a tag that comes back starts afresh, at its
// class's virtual time.
func (c *Controller) tenantStateLocked(name string) *tenantState {
	c.arrivals++
	ts := c.tenants[name]
	if ts != nil {
		ts.lastSeen = c.arrivals
		return ts
	}
	ts = &tenantState{cfg: Tenant{Name: name}, auto: true, lastSeen: c.arrivals}
	autos, idle := 0, []*tenantState(nil)
	for _, t := range c.tenants {
		if t.auto {
			autos++
			if t.queued == 0 && t.running == 0 {
				idle = append(idle, t)
			}
		}
	}
	if over := autos + 1 - maxAutoTenants; over > 0 {
		sort.Slice(idle, func(i, j int) bool { return idle[i].lastSeen < idle[j].lastSeen })
		for _, t := range idle[:min(over, len(idle))] {
			delete(c.tenants, t.cfg.Name)
			c.tenantsEvicted++
		}
	}
	c.tenants[name] = ts
	return ts
}
