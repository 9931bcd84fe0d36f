package experiment

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// NetworkOutcome is one congestion level's measurement in the network
// study.
type NetworkOutcome struct {
	// Congestion is the multiplier applied to the link toward the
	// statically-preferred server.
	Congestion float64
	// FixedAvgMS is the average response time when routing stays pinned to
	// that server (the static nickname registration, blind to the network).
	FixedAvgMS float64
	// QCCAvgMS is the average response with QCC-calibrated routing.
	QCCAvgMS float64
	// Gain is (fixed − qcc)/fixed.
	Gain float64
}

// NetworkStudy exercises the "network aware" half of the paper's title
// beyond the load phases: the link toward the best server degrades
// progressively (congestion multiplies latency and divides bandwidth), and
// we compare pinned routing against QCC, whose calibration factors absorb
// network latency exactly like processing latency (§3.1: "their combined
// effects can be captured using a single ... calibration factor").
func NetworkStudy(opts Options, congestions []float64) ([]NetworkOutcome, error) {
	opts.fill()
	if len(congestions) == 0 {
		congestions = []float64{1, 2, 4, 8, 16}
	}
	build := scenario.ThreeServerFederations(scenario.Options{Scale: opts.Scale, Seed: opts.Seed})
	// Find the calm-system winner once: that is the server a static
	// registration would pin.
	probe, err := build()
	if err != nil {
		return nil, err
	}
	gp, err := probe.II.Compile(workload.Types()[0].Make(0))
	if err != nil {
		return nil, err
	}
	pinned := gp.Fragments[0].ServerID

	pin := map[string]string{}
	for _, qt := range workload.Types() {
		pin[qt.Name] = pinned
	}

	var out []NetworkOutcome
	for _, cong := range congestions {
		congest := func(sc *scenario.Scenario) error {
			sc.Topo.Link(pinned).SetCongestion(cong)
			return nil
		}
		fixedAvg, _, _, err := runPinned(opts, build, congest, pin)
		if err != nil {
			return nil, fmt.Errorf("network study fixed @%gx: %w", cong, err)
		}
		// QCC learns server-level factors only here.
		qccAvg, _, _, err := runQCC(opts, build, false, congest)
		if err != nil {
			return nil, fmt.Errorf("network study qcc @%gx: %w", cong, err)
		}
		out = append(out, NetworkOutcome{
			Congestion: cong,
			FixedAvgMS: fixedAvg,
			QCCAvgMS:   qccAvg,
			Gain:       gain(fixedAvg, qccAvg),
		})
	}
	return out, nil
}

// FormatNetworkStudy renders the congestion sweep.
func FormatNetworkStudy(outcomes []NetworkOutcome) string {
	out := "Network study — congestion on the preferred server's link\n"
	out += "  congestion   pinned(ms)     QCC(ms)    gain\n"
	for _, o := range outcomes {
		out += fmt.Sprintf("  %9.0fx %11.1f %11.1f  %5.1f%%\n",
			o.Congestion, o.FixedAvgMS, o.QCCAvgMS, o.Gain*100)
	}
	return out
}
