package admission

import "repro/internal/simclock"

// The two workload class names. A WithClass tag naming either pins the
// class; any other tag falls back to cost classification.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// InteractiveCeilingMS is the calibrated-cost boundary between the two
// classes: queries the optimizer expects to finish within a second are
// interactive, the rest batch.
const InteractiveCeilingMS = 1000

// class indexes the two workload classes in drain order: a queued
// interactive query is admitted before any queued batch query. Priority
// never preempts running queries, only queue position.
type class int

const (
	interactive class = iota
	batch
	numClasses
)

// String names the class.
func (k class) String() string { return [numClasses]string{ClassInteractive, ClassBatch}[k] }

// ClassConfig bounds one workload class. Zero means unlimited for every
// field.
type ClassConfig struct {
	// MaxConcurrent caps how many queries of this class run at once.
	MaxConcurrent int
	// HoldCostMS parks queries whose calibrated estimate exceeds it: they
	// queue (even with free capacity) until a policy change lifts the hold or
	// their QueueDeadline sheds them. Zero disables holds.
	HoldCostMS float64
	// QueueDeadline bounds queue wait in virtual milliseconds; a query still
	// queued past it is shed with a ReasonQueueTimeout rejection. Zero means
	// queued queries wait indefinitely (and holds are rejected up front,
	// since nothing could ever release them).
	QueueDeadline simclock.Time
}

// Policy is a full admission configuration: a global concurrency cap plus
// the bounds of the two classes. The zero Policy is the admission-disabled
// configuration every federation starts with: every cap unlimited and no
// holds, under which the controller is a pure pass-through.
type Policy struct {
	// MaxConcurrent caps total running queries across both classes (0 =
	// unlimited).
	MaxConcurrent int
	// Interactive and Batch bound their classes.
	Interactive ClassConfig
	Batch       ClassConfig
}

// Unlimited reports whether the policy imposes no constraint at all — no
// caps and no holds — and the controller may take the pass-through path.
func (p Policy) Unlimited() bool {
	for _, c := range [numClasses]ClassConfig{p.Interactive, p.Batch} {
		if c.MaxConcurrent > 0 || c.HoldCostMS > 0 {
			return false
		}
	}
	return p.MaxConcurrent <= 0
}

// config is one class's bounds.
func (p Policy) config(k class) ClassConfig {
	if k == interactive {
		return p.Interactive
	}
	return p.Batch
}

// held reports whether the class's cost hold parks a query of the given
// calibrated cost.
func (p Policy) held(k class, costMS float64) bool {
	hold := p.config(k).HoldCostMS
	return hold > 0 && costMS > hold
}

// classify resolves a request's class: a tag naming a class wins; otherwise
// a cost of at most InteractiveCeilingMS is interactive and anything else
// batch.
func classify(req Request) class {
	switch req.Class {
	case ClassInteractive:
		return interactive
	case ClassBatch:
		return batch
	}
	if req.CostMS <= InteractiveCeilingMS {
		return interactive
	}
	return batch
}
