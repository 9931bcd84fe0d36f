package qcc

import (
	"sync"

	"repro/internal/simclock"
)

// AvailabilityConfig tunes down-detection (§3.3).
type AvailabilityConfig struct {
	// ProbeInterval is the daemon cadence in simulated ms (default 1000).
	ProbeInterval simclock.Time
}

func (c *AvailabilityConfig) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 1000
	}
}

// Availability tracks which servers are up. Down servers are calibrated to
// +Inf so the optimizer never routes to them; the daemon's status reports
// "allow QCC to make unavailable remote sources be considered by II again
// once the remote resources become available" (§3.3).
type Availability struct {
	mu   sync.Mutex
	cfg  AvailabilityConfig
	down map[string]bool
	// downEvents counts transitions to down, for reports.
	downEvents map[string]int
}

// NewAvailability builds the tracker.
func NewAvailability(cfg AvailabilityConfig) *Availability {
	cfg.fill()
	return &Availability{cfg: cfg, down: map[string]bool{}, downEvents: map[string]int{}}
}

// MarkDown fences a server off. It reports whether this call was the
// up→down transition (false when the server was already fenced).
func (a *Availability) MarkDown(serverID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down[serverID] {
		return false
	}
	a.down[serverID] = true
	a.downEvents[serverID]++
	return true
}

// MarkUp restores a server. It reports whether this call was the down→up
// transition (false when the server was already up).
func (a *Availability) MarkUp(serverID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.down[serverID] {
		return false
	}
	a.down[serverID] = false
	return true
}

// IsDown reports the fenced state.
func (a *Availability) IsDown(serverID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.down[serverID]
}

// DownEvents returns how many times a server transitioned to down.
func (a *Availability) DownEvents(serverID string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.downEvents[serverID]
}
