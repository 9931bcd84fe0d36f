package telemetry

import (
	"repro/internal/ring"
	"repro/internal/simclock"
)

// FactorSample is one published calibration-factor observation.
type FactorSample struct {
	At     simclock.Time
	Server string
	Factor float64
}

// TimelineStore retains the most recent ring.Entries calibration-factor
// samples in submission order (oldest evicted first), so the paper's
// calibration-factor vs. load timelines can be rebuilt from a live run: Add
// appends, Tail(0) snapshots, Select filters (one server's samples, say), Len
// and Evicted count. A nil store is empty.
type TimelineStore = ring.Log[FactorSample]
