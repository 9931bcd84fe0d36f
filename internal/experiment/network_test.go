package experiment

import (
	"strings"
	"sync"
	"testing"
)

var (
	netOnce   sync.Once
	netCached []NetworkOutcome
	netErr    error
)

// networkStudy is the congestion sweep at 1×, 4× and 16×, computed once.
func networkStudy(t *testing.T) []NetworkOutcome {
	t.Helper()
	netOnce.Do(func() {
		netCached, netErr = NetworkStudy(Options{Scale: 50, Instances: 5}, []float64{1, 4, 16})
	})
	if netErr != nil {
		t.Fatal(netErr)
	}
	return netCached
}

// TestNetworkStudyQCCAbsorbsCongestion asserts the "network aware" claim:
// as the preferred server's link congests, pinned routing degrades steeply
// while QCC's calibrated routing shifts to other sources and stays flat.
func TestNetworkStudyQCCAbsorbsCongestion(t *testing.T) {
	out := networkStudy(t)
	if len(out) != 3 {
		t.Fatalf("outcomes: %d", len(out))
	}
	calm, heavy := out[0], out[2]
	// Pinned routing degrades with congestion.
	if heavy.FixedAvgMS <= calm.FixedAvgMS*1.5 {
		t.Fatalf("pinned routing must degrade: %.1f -> %.1f", calm.FixedAvgMS, heavy.FixedAvgMS)
	}
	// QCC stays much flatter: it reroutes around the congested link.
	qccBlowup := heavy.QCCAvgMS / calm.QCCAvgMS
	fixedBlowup := heavy.FixedAvgMS / calm.FixedAvgMS
	if qccBlowup >= fixedBlowup*0.7 {
		t.Fatalf("QCC must absorb congestion: qcc %.2fx vs pinned %.2fx", qccBlowup, fixedBlowup)
	}
	// Under heavy congestion QCC clearly wins.
	if heavy.Gain < 0.2 {
		t.Fatalf("gain under 16x congestion: %.1f%%", heavy.Gain*100)
	}
	report := FormatNetworkStudy(out)
	if !strings.Contains(report, "16x") {
		t.Fatalf("report: %s", report)
	}
	t.Logf("\n%s", report)
}

func TestNetworkStudyDefaultLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	out, err := NetworkStudy(Options{Scale: 100, Instances: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("default sweep size: %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].FixedAvgMS < out[i-1].FixedAvgMS {
			t.Fatalf("pinned response must be monotone in congestion: %+v", out)
		}
	}
}
