package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// TestLoadBalanceStudyRotationBeatsPinning asserts §4's claim end to end:
// when servers heat up under their own traffic, round-robin rotation over
// close-cost plans beats pinning the single cheapest plan — at the paper's
// table sizes too, where a burst of 30 spans far more virtual time than
// anything a rotation set could once outlive.
func TestLoadBalanceStudyRotationBeatsPinning(t *testing.T) {
	for _, scale := range []int{1, 20, 50} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			out, err := LoadBalanceStudy(Options{Scale: scale, Instances: 10}, 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 3 {
				t.Fatalf("outcomes: %d", len(out))
			}
			byMode := map[string]LBOutcome{}
			for _, o := range out {
				byMode[o.Mode] = o
			}
			off, frag, glob := byMode["off"], byMode["fragment"], byMode["global"]
			// Pinning hammers one server.
			if off.ServersUsed != 1 || off.MaxShare < 0.99 {
				t.Fatalf("off policy should pin one server: %+v", off)
			}
			// Rotation spreads.
			if frag.ServersUsed < 2 || glob.ServersUsed < 2 {
				t.Fatalf("rotation should spread: frag=%+v glob=%+v", frag, glob)
			}
			// And with induced load, spreading is faster on average.
			if frag.AvgMS >= off.AvgMS {
				t.Fatalf("fragment rotation should beat pinning: %.1f vs %.1f", frag.AvgMS, off.AvgMS)
			}
			if glob.AvgMS >= off.AvgMS {
				t.Fatalf("global rotation should beat pinning: %.1f vs %.1f", glob.AvgMS, off.AvgMS)
			}
			report := FormatLoadBalanceStudy(out)
			if !strings.Contains(report, "fragment") {
				t.Fatalf("report: %s", report)
			}
			t.Logf("\n%s", report)
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if percentile(xs, 0) != 1 || percentile(xs, 1) != 5 {
		t.Fatal("extremes")
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("median: %g", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty")
	}
}
