package network

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func TestTransferTimeLatencyOnly(t *testing.T) {
	l := NewLink(LinkConfig{LatencyMS: 10})
	if got := l.TransferTime(1 << 20); got != 10 {
		t.Fatalf("infinite bandwidth: %v", got)
	}
}

func TestTransferTimeBandwidth(t *testing.T) {
	// 1024 KB/s ≈ 1.048576 bytes per ms... use 1000 KB/s = 1024 bytes/ms.
	l := NewLink(LinkConfig{LatencyMS: 5, BandwidthKBps: 1000})
	got := l.TransferTime(10240)
	want := 5 + 10240.0/1024.0
	if float64(got) < want-0.01 || float64(got) > want+0.01 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCongestionSlowsLink(t *testing.T) {
	l := NewLink(LinkConfig{LatencyMS: 10, BandwidthKBps: 1000})
	base := l.TransferTime(10240)
	l.SetCongestion(3)
	slow := l.TransferTime(10240)
	if float64(slow) < float64(base)*2.9 {
		t.Fatalf("congestion barely slowed: %v -> %v", base, slow)
	}
	if l.Congestion() != 3 {
		t.Fatal("congestion getter")
	}
	l.SetCongestion(0.1)
	if l.Congestion() != 1 {
		t.Fatal("congestion must clamp at 1")
	}
}

func TestRoundTrip(t *testing.T) {
	topo := NewTopology()
	l := NewLink(LinkConfig{LatencyMS: 10})
	topo.AddLink("S1", l)
	if got, err := topo.RoundTrip(context.Background(), "S1", 0, 0); err != nil || got != 20 {
		t.Fatalf("rtt: %v %v", got, err)
	}
	if l.BaseLatency() != 10 {
		t.Fatal("base latency")
	}
}

func TestTopologyTransferAndPartition(t *testing.T) {
	topo := NewTopology()
	topo.AddLink("S1", NewLink(LinkConfig{LatencyMS: 5}))
	topo.AddLink("S2", NewLink(LinkConfig{LatencyMS: 50}))
	tt, err := topo.Transfer(context.Background(), "S1", 0)
	if err != nil || tt != 5 {
		t.Fatalf("transfer: %v %v", tt, err)
	}
	if _, err := topo.Transfer(context.Background(), "S9", 0); err == nil {
		t.Fatal("unknown dest must error")
	}
	topo.Link("S1").SetDown(true)
	_, err = topo.Transfer(context.Background(), "S1", 0)
	var pe *ErrPartitioned
	if !errors.As(err, &pe) || pe.Dest != "S1" {
		t.Fatalf("partition error: %v", err)
	}
	if !topo.Link("S1").Down() {
		t.Fatal("down getter")
	}
	topo.Link("S1").SetDown(false)
	if _, err := topo.Transfer(context.Background(), "S1", 0); err != nil {
		t.Fatalf("recovered link: %v", err)
	}
	rtt, err := topo.RoundTrip(context.Background(), "S2", 10, 10)
	if err != nil || rtt != 100 {
		t.Fatalf("roundtrip: %v %v", rtt, err)
	}
	topo.Link("S2").SetDown(true)
	if _, err := topo.RoundTrip(context.Background(), "S2", 1, 1); err == nil {
		t.Fatal("roundtrip over down link must fail")
	}
}

func TestTransferTimeNonNegativeProperty(t *testing.T) {
	l := NewLink(LinkConfig{LatencyMS: 1, BandwidthKBps: 10})
	f := func(n uint16) bool {
		return l.TransferTime(int(n)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMonotoneInPayloadProperty(t *testing.T) {
	l := NewLink(LinkConfig{LatencyMS: 2, BandwidthKBps: 100})
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return l.TransferTime(x) <= l.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
