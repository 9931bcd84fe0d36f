package qcc

import (
	"testing"
	"testing/quick"

	"repro/internal/metawrapper"
	"repro/internal/simclock"
)

func key(server, sig string) metawrapper.FragmentKey {
	return metawrapper.FragmentKey{ServerID: server, Signature: sig}
}

func TestHistoryFactorRatioOfAverages(t *testing.T) {
	h := newHistory()
	h.add(0, 5, 8)
	h.add(1, 5, 7)
	f, n := h.factor(2)
	if n != 2 {
		t.Fatalf("samples: %d", n)
	}
	want := 15.0 / 10.0
	if f != want {
		t.Fatalf("factor %g want %g", f, want)
	}
}

func TestHistoryWindowAndAge(t *testing.T) {
	h := newHistory()
	for i := 0; i < calibrationWindow+5; i++ {
		h.add(simclock.Time(i), 1, float64(i))
	}
	if h.Len() != calibrationWindow || h.At(0).obs != 5 {
		t.Fatalf("window: %d samples, oldest obs %g", h.Len(), h.At(0).obs)
	}
	// The age cut drops exactly the samples older than calibrationMaxAge.
	if _, n := h.factor(calibrationMaxAge + 10); n != calibrationWindow-5 {
		t.Fatalf("age cut at %v kept %d samples", calibrationMaxAge+10, n)
	}
	_, n := h.factor(calibrationMaxAge + 1000)
	if n != 0 {
		t.Fatalf("aged samples must expire: %d", n)
	}
	f, _ := h.factor(calibrationMaxAge + 1000)
	if f != 1 {
		t.Fatalf("empty factor must be 1: %g", f)
	}
}

func TestHistoryIgnoresZeroEstimates(t *testing.T) {
	h := newHistory()
	h.add(0, 0, 99)
	h.add(0, 2, 4)
	f, n := h.factor(1)
	if n != 1 || f != 2 {
		t.Fatalf("factor %g n=%d", f, n)
	}
}

func TestCalibrationFactorsAndPublish(t *testing.T) {
	c := NewCalibration(CalibrationConfig{PerFragment: true})
	k1 := key("S1", "Q1")
	c.RecordRun(0, k1, 10, 16) // factor 1.6, like the paper's S1 example
	// Factors are invisible until published.
	if f := c.FragmentFactor(k1); f != 1 {
		t.Fatalf("pre-publish factor must be 1: %g", f)
	}
	c.Publish(1)
	if f := c.FragmentFactor(k1); f != 1.6 {
		t.Fatalf("fragment factor: %g", f)
	}
	if f := c.ServerFactor("S1"); f != 1.6 {
		t.Fatalf("server factor: %g", f)
	}
	// A different fragment on the same server falls back to the server
	// factor — the Figure 5 mechanism (QF3 calibrated by S2's factor).
	if f := c.FragmentFactor(key("S1", "Q9")); f != 1.6 {
		t.Fatalf("fallback to server factor: %g", f)
	}
	// An unknown server is neutral.
	if f := c.FragmentFactor(key("S9", "Q1")); f != 1 {
		t.Fatalf("unknown server: %g", f)
	}
}

func TestCalibrationPerFragmentDisabled(t *testing.T) {
	c := NewCalibration(CalibrationConfig{PerFragment: false})
	k1, k2 := key("S1", "Q1"), key("S1", "Q2")
	c.RecordRun(0, k1, 10, 30) // 3.0
	c.RecordRun(0, k2, 10, 10) // 1.0
	c.Publish(1)
	// Both collapse to the server-level blend (40/20 = 2).
	if f := c.FragmentFactor(k1); f != 2 {
		t.Fatalf("server-only factor: %g", f)
	}
	if f := c.FragmentFactor(k2); f != 2 {
		t.Fatalf("server-only factor: %g", f)
	}
}

func TestCalibrationDriftSignal(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	k := key("S1", "Q1")
	c.RecordRun(0, k, 10, 10)
	if drift := c.Publish(1); drift != 0 {
		t.Fatalf("first publish drift: %g", drift)
	}
	c.RecordRun(2, k, 10, 40)
	drift := c.Publish(3)
	if drift < 0.5 {
		t.Fatalf("load spike must register as drift: %g", drift)
	}
}

func TestCalibrationProbeFallback(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	c.RecordProbe("S1", 10) // baseline
	c.RecordProbe("S1", 30) // loaded
	c.Publish(1)
	if f := c.ServerFactor("S1"); f != 3 {
		t.Fatalf("probe factor: %g", f)
	}
	// Probe factor never dips below 1.
	c.RecordProbe("S1", 5)
	c.Publish(2)
	if f := c.ServerFactor("S1"); f != 1 {
		t.Fatalf("clamped probe factor: %g", f)
	}
}

func TestCalibrationIIFactor(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	if c.IIFactor() != 1 {
		t.Fatal("default II factor")
	}
	c.RecordII(0, 10, 25)
	c.Publish(1)
	if f := c.IIFactor(); f != 2.5 {
		t.Fatalf("II factor: %g", f)
	}
}

func TestCalibrationSeedEstimate(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	k := key("F1", "QF")
	if s := c.SeedEstimate(0, k); s != 0 {
		t.Fatalf("no seed yet: %g", s)
	}
	c.RecordProbe("F1", 5)
	if s := c.SeedEstimate(0, k); s != 100 {
		t.Fatalf("probe seed: %g", s)
	}
	// Observed runs (est=0) override the probe seed.
	c.RecordRun(0, k, 0, 42)
	c.RecordRun(0, k, 0, 44)
	if s := c.SeedEstimate(1, k); s != 43 {
		t.Fatalf("observed seed: %g", s)
	}
}

func TestCalibrationKnownServers(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	c.RecordRun(0, key("S2", "Q"), 1, 1)
	c.RecordProbe("S1", 4)
	c.Publish(1)
	got := c.KnownServers()
	if len(got) != 2 || got[0] != "S1" || got[1] != "S2" {
		t.Fatalf("known servers: %v", got)
	}
	if c.Publishes() != 1 {
		t.Fatalf("publishes: %d", c.Publishes())
	}
}

func TestFactorPositiveProperty(t *testing.T) {
	c := NewCalibration(CalibrationConfig{})
	f := func(est, obs uint16) bool {
		k := key("S1", "Q")
		c.RecordRun(0, k, float64(est)+1, float64(obs))
		c.Publish(0)
		return c.FragmentFactor(k) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
