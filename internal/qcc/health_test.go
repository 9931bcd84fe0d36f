package qcc_test

import (
	"math"
	"testing"

	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func fragKey(server string) metawrapper.FragmentKey {
	return metawrapper.FragmentKey{ServerID: server, Signature: "health-test"}
}

// buildWithTelemetry wires a daemon-free QCC with an enabled telemetry
// subsystem so tests can drive observations manually and assert the gauges.
func buildWithTelemetry(t *testing.T) (*scenario.Scenario, *qcc.QCC, *telemetry.Telemetry) {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	tel.SetEnabled(true)
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		DisableDaemons: true,
		Telemetry:      tel,
	}, sc.II)
	return sc, q, tel
}

// TestReliabilityFactorDecayAndRecovery drives a server through consecutive
// probe failures and then a recovery streak, asserting the factor climbs
// with the failure rate, never exceeds 1+Penalty, and decays back toward 1
// as successes refill the window — with the telemetry gauge tracking every
// step.
func TestReliabilityFactorDecayAndRecovery(t *testing.T) {
	sc, q, tel := buildWithTelemetry(t)
	j := sc.MW.Journal()
	const server = "S1"
	const window = 50 // qcc's reliability window

	gauge := func() float64 {
		v, ok := tel.Metrics().GaugeValue("qcc.reliability_factor", server)
		if !ok {
			t.Fatal("reliability gauge must exist after an observation")
		}
		return v
	}

	if f := q.Rel.Factor(server); f != 1 {
		t.Fatalf("unknown server must have factor 1, got %g", f)
	}

	// Consecutive probe failures: the factor must rise monotonically toward
	// the all-failing ceiling 1+Penalty.
	prev := 1.0
	flaky := journal.Probe{ServerID: server, Err: "probe: connection reset"}
	for i := 0; i < window; i++ {
		j.AddProbe(flaky)
		f := q.Rel.Factor(server)
		if f < prev {
			t.Fatalf("factor must not decrease under consecutive failures: %g -> %g", prev, f)
		}
		if g := gauge(); g != f {
			t.Fatalf("telemetry gauge %g out of sync with factor %g", g, f)
		}
		prev = f
	}
	ceiling := 1 + 4.0 // qcc's reliability penalty
	if math.Abs(prev-ceiling) > 1e-9 {
		t.Fatalf("all-failing window must hit 1+Penalty=%g, got %g", ceiling, prev)
	}
	// Extra failures beyond the window cannot push the factor higher.
	j.AddProbe(flaky)
	if f := q.Rel.Factor(server); f > ceiling+1e-9 {
		t.Fatalf("factor exceeded ceiling: %g", f)
	}

	// Recovery: successful probes displace failures from the window and the
	// factor decays monotonically back to exactly 1.
	prev = q.Rel.Factor(server)
	for i := 0; i < window; i++ {
		j.AddProbe(journal.Probe{ServerID: server, RTTMS: 1})
		f := q.Rel.Factor(server)
		if f > prev {
			t.Fatalf("factor must not increase under consecutive successes: %g -> %g", prev, f)
		}
		if g := gauge(); g != f {
			t.Fatalf("telemetry gauge %g out of sync with factor %g", g, f)
		}
		prev = f
	}
	if prev != 1 {
		t.Fatalf("full success window must restore factor 1, got %g", prev)
	}
}

// TestFencedServerReadmittedAfterProbes takes a server down, lets error
// observations fence it, then brings it back and asserts successful probes
// re-admit it — with the fence gauge and fence/unfence transition counters
// tracking each state change exactly once despite repeated observations.
func TestFencedServerReadmittedAfterProbes(t *testing.T) {
	sc, q, tel := buildWithTelemetry(t)
	const server = "S2"

	fenced := func() float64 {
		v, ok := tel.Metrics().GaugeValue("qcc.fenced", server)
		if !ok {
			t.Fatal("fence gauge must exist after an observation")
		}
		return v
	}
	fences := func() int64 { return tel.Metrics().CounterValue("qcc.fences", server) }
	unfences := func() int64 { return tel.Metrics().CounterValue("qcc.unfences", server) }

	sc.Servers[server].SetDown(true)
	// Repeated down errors: one fence transition, gauge pinned at 1.
	for i := 0; i < 3; i++ {
		down := &remote.ErrServerDown{ID: server}
		sc.MW.Journal().AddError(journal.Error{ServerID: server, Err: down.Error(), Down: true})
	}
	if !q.Avail.IsDown(server) {
		t.Fatal("server must be fenced after down errors")
	}
	if got := fences(); got != 1 {
		t.Fatalf("repeated down errors must count one fence transition, got %d", got)
	}
	if got := fenced(); got != 1 {
		t.Fatalf("fence gauge must read 1, got %g", got)
	}
	// A fenced server is calibrated to +Inf so the optimizer never picks it.
	est := q.CalibrateFragment(fragKey(server), remote.CostEstimate{TotalMS: 10}, true)
	if !math.IsInf(est.TotalMS, 1) {
		t.Fatalf("fenced server must cost +Inf, got %g", est.TotalMS)
	}

	// Probes keep failing while it is down: still fenced, still one event.
	q.ProbeNow()
	if !q.Avail.IsDown(server) || fences() != 1 {
		t.Fatal("failed probes must not flap the fence state")
	}

	// Recovery: the next probe sweep re-admits the server.
	sc.Servers[server].SetDown(false)
	q.ProbeNow()
	if q.Avail.IsDown(server) {
		t.Fatal("successful probe must re-admit the server")
	}
	if got := unfences(); got != 1 {
		t.Fatalf("recovery must count one unfence transition, got %d", got)
	}
	if got := fenced(); got != 0 {
		t.Fatalf("fence gauge must read 0 after recovery, got %g", got)
	}
	est = q.CalibrateFragment(fragKey(server), remote.CostEstimate{TotalMS: 10}, true)
	if math.IsInf(est.TotalMS, 1) {
		t.Fatal("re-admitted server must be costed finitely again")
	}
	// Further successful probes are not transitions.
	q.ProbeNow()
	if got := unfences(); got != 1 {
		t.Fatalf("steady up state must not count more unfences, got %d", got)
	}
}

// TestDownEventsCountTransitions pins the transition semantics MarkDown and
// MarkUp report: only edges count, and DownEvents aggregates the down edges.
func TestDownEventsCountTransitions(t *testing.T) {
	a := qcc.NewAvailability(qcc.AvailabilityConfig{})
	if !a.MarkDown("X") {
		t.Fatal("first MarkDown must report a transition")
	}
	if a.MarkDown("X") {
		t.Fatal("repeated MarkDown must not report a transition")
	}
	if !a.MarkUp("X") {
		t.Fatal("MarkUp from down must report a transition")
	}
	if a.MarkUp("X") {
		t.Fatal("repeated MarkUp must not report a transition")
	}
	if a.MarkUp("Y") {
		t.Fatal("MarkUp on a never-down server must not report a transition")
	}
	a.MarkDown("X")
	if got := a.DownEvents("X"); got != 2 {
		t.Fatalf("DownEvents must count down transitions, got %d", got)
	}
}
