package qcc

import (
	"sync"

	"repro/internal/ring"
	"repro/internal/simclock"
)

// The dynamic recalibration cycle (§3.4: "dynamic nature of the network and
// processing latencies at each remote server can vary dramatically. Thus,
// the frequency of re-calibration does have impact to effectiveness of
// QCC"): after each publish the interval halves when the largest factor
// drift exceeds cycleSpeedUpDrift and grows by 1.5× when it stays below
// cycleSlowDownDrift, within [cycleMin, cycleMax] simulated ms.
const (
	cycleInitial       = simclock.Time(500)
	cycleMin           = simclock.Time(100)
	cycleMax           = simclock.Time(5000)
	cycleSpeedUpDrift  = 0.15
	cycleSlowDownDrift = 0.03
)

// CycleConfig selects the recalibration cycle. The zero value is the
// paper's dynamic cycle starting at 500 ms.
type CycleConfig struct {
	// Initial is the starting publish interval in simulated ms (0 selects
	// 500).
	Initial simclock.Time
	// Fixed keeps the interval at Initial (the fixed-cycle ablation).
	Fixed bool
}

// CycleController periodically publishes calibration factors and adapts its
// own cadence to the observed factor drift.
type CycleController struct {
	mu       sync.Mutex
	fixed    bool
	interval simclock.Time
	calib    *Calibration
	history  *ring.Ring[simclock.Time] // intervals used, for reports/ablation
}

// NewCycleController builds a controller over the calibration store.
func NewCycleController(cfg CycleConfig, calib *Calibration) *CycleController {
	if cfg.Initial <= 0 {
		cfg.Initial = cycleInitial
	}
	return &CycleController{
		fixed:    cfg.Fixed,
		interval: cfg.Initial,
		calib:    calib,
		history:  ring.New[simclock.Time](ring.Entries),
	}
}

// Interval returns the current publish interval.
func (cc *CycleController) Interval() simclock.Time {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.interval
}

// Intervals returns the interval history, oldest first: one entry per
// publish, the newest ring.Entries of them.
func (cc *CycleController) Intervals() []simclock.Time {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.history.Tail(0)
}

// Start schedules the publish loop on the clock; returns a cancel function.
func (cc *CycleController) Start(clock *simclock.Clock) simclock.Cancel {
	return clock.Every(cc.Interval(), func(now simclock.Time) simclock.Time {
		drift := cc.calib.Publish(now)
		cc.mu.Lock()
		defer cc.mu.Unlock()
		cc.history.Push(cc.interval)
		if cc.fixed {
			return cc.interval
		}
		switch {
		case drift > cycleSpeedUpDrift:
			cc.interval = max(cc.interval/2, cycleMin)
		case drift < cycleSlowDownDrift:
			cc.interval = min(cc.interval*3/2, cycleMax)
		}
		return cc.interval
	})
}
