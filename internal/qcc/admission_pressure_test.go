package qcc

import (
	"testing"

	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// TestQueuePressureInflatesIIFactor checks the admission feedback loop at the
// factor level: queued demand must raise the effective II workload factor —
// and therefore CalibrateII's output — BEFORE any execution-side observation
// moves the published factor itself.
func TestQueuePressureInflatesIIFactor(t *testing.T) {
	clk := simclock.New()
	q := New(Config{Clock: clk, DisableDaemons: true})
	depth := 0
	q.SetDemandSource(func() int { return depth })

	base := q.Calib.IIFactor()
	if got := q.EffectiveIIFactor(); got != base {
		t.Fatalf("effective factor with empty queue = %v, want published %v", got, base)
	}
	calm := q.CalibrateII(100)

	depth = 4
	inflated := q.EffectiveIIFactor()
	want := base * (1 + router.QueuePressureGain*4)
	if inflated != want {
		t.Fatalf("effective factor at depth 4 = %v, want %v", inflated, want)
	}
	if q.Calib.IIFactor() != base {
		t.Fatal("queue pressure must not touch the published factor itself")
	}
	if got := q.CalibrateII(100); got <= calm {
		t.Fatalf("CalibrateII under backlog = %v, must exceed uncontended %v", got, calm)
	}

	depth = 8
	deeper := q.EffectiveIIFactor()
	if deeper <= inflated {
		t.Fatalf("factor must rise with queue depth: depth 8 → %v, depth 4 → %v", deeper, inflated)
	}
}

// TestQueuePressureGainDisabled checks the escape hatch: the gain is a
// constant, so clearing the demand source is what switches the feedback off
// entirely.
func TestQueuePressureGainDisabled(t *testing.T) {
	clk := simclock.New()
	q := New(Config{Clock: clk, DisableDaemons: true})
	q.SetDemandSource(func() int { return 100 })
	if q.EffectiveIIFactor() == q.Calib.IIFactor() {
		t.Fatal("a backlog of 100 must inflate the effective factor")
	}
	q.SetDemandSource(nil)
	if got, want := q.EffectiveIIFactor(), q.Calib.IIFactor(); got != want {
		t.Fatalf("disabled feedback: effective %v != published %v", got, want)
	}
}

// TestQueuePressureTimelineSample checks the telemetry contract: every
// publish appends an "II" effective-factor sample to the calibration
// timeline and refreshes the qcc.ii_effective_factor gauge.
func TestQueuePressureTimelineSample(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	tel.SetEnabled(true)
	q := New(Config{Clock: clk, DisableDaemons: true, Telemetry: tel})
	depth := 3
	q.SetDemandSource(func() int { return depth })

	clk.Advance(10)
	q.PublishNow()

	samples := tel.Timelines().Select(func(s *telemetry.FactorSample) bool { return s.Server == "II" })
	if len(samples) == 0 {
		t.Fatal("publish must append an II effective-factor timeline sample")
	}
	want := q.Calib.IIFactor() * (1 + router.QueuePressureGain*3)
	if got := samples[len(samples)-1].Factor; got != want {
		t.Fatalf("II timeline sample = %v, want %v", got, want)
	}
	if v, ok := tel.Metrics().GaugeValue("qcc.ii_effective_factor", ""); !ok || v != want {
		t.Fatalf("qcc.ii_effective_factor gauge = %v (ok=%v), want %v", v, ok, want)
	}
	published, ok := tel.Metrics().GaugeValue("qcc.ii_factor", "")
	if !ok {
		t.Fatal("qcc.ii_factor gauge missing")
	}
	if want <= published {
		t.Fatalf("effective factor %v must exceed published %v while the queue is backed up", want, published)
	}
}
