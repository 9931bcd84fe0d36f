// Command qccbench regenerates every table and figure of the paper's
// evaluation section (§5):
//
//	qccbench -exp fig9    # Figure 9 (a)-(d): query-type load sensitivity
//	qccbench -exp table1  # Table 1: the server load phases
//	qccbench -exp table2  # Table 2: fixed vs dynamic assignment
//	qccbench -exp fig10   # Figure 10: QCC vs fixed assignment 1
//	qccbench -exp fig11   # Figure 11: QCC vs fixed assignment 2 (always S3)
//	qccbench -exp probes  # the pinned probe rows (TestProbesGolden)
//	qccbench -exp multitenant  # multi-tenant overload study
//	qccbench -exp all     # everything
//
// The -scale flag divides the paper's table sizes (1 = 100k-row large
// tables, about half a minute for -exp all on two cores; the default 20 takes
// a few seconds, and EXPERIMENTS.md lists the shapes that differ between the
// two). The probes run at their own fixed scales and seeds. Nothing is
// written but standard output.
package main

import (
	"flag"
	"fmt"
	"os"

	fedqcc "repro"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig9|table1|table2|fig10|fig11|network|lb|weighted|probes|multitenant|all")
	scale := flag.Int("scale", 20, "table-size divisor (1 = paper scale, 100k-row large tables)")
	instances := flag.Int("instances", 10, "query instances per type")
	seed := flag.Int64("seed", 42, "data-generation seed")
	flag.Parse()

	opts := fedqcc.ExperimentOptions{Scale: *scale, Instances: *instances, Seed: *seed}

	needSens := *exp == "fig9" || *exp == "all"
	needGain := *exp == "table2" || *exp == "fig10" || *exp == "fig11" || *exp == "all"
	needNet := *exp == "network" || *exp == "all"
	needLB := *exp == "lb" || *exp == "all"

	var sens []fedqcc.SensitivityResult
	var outcomes []fedqcc.PhaseOutcome
	var network []fedqcc.NetworkOutcome
	var err error
	if needSens {
		sens, err = fedqcc.RunSensitivityStudy(opts)
		fail(err)
	}
	if needGain {
		outcomes, err = fedqcc.RunGainStudy(opts)
		fail(err)
	}
	if needNet {
		network, err = fedqcc.RunNetworkStudy(opts, nil)
		fail(err)
	}
	var lb []fedqcc.LBOutcome
	if needLB {
		lb, err = fedqcc.RunLoadBalanceStudy(opts, 30)
		fail(err)
	}
	var weighted []fedqcc.WeightedOutcome
	if *exp == "weighted" || *exp == "all" {
		weighted, err = fedqcc.RunWeightedRoutingStudy(opts, 0)
		fail(err)
	}
	var probes []fedqcc.ProbeRow
	if *exp == "probes" || *exp == "all" {
		probes, err = fedqcc.RunProbes()
		fail(err)
	}
	var multitenant fedqcc.MultitenantStudyResult
	if *exp == "multitenant" || *exp == "all" {
		multitenant, err = fedqcc.RunMultitenantStudy(opts)
		fail(err)
	}

	switch *exp {
	case "fig9":
		fmt.Print(fedqcc.FormatFigure9(sens))
	case "table1":
		fmt.Print(fedqcc.FormatTable1())
	case "table2":
		fmt.Print(fedqcc.FormatTable2(outcomes))
	case "fig10":
		fmt.Print(fedqcc.FormatFigure10(outcomes))
	case "fig11":
		fmt.Print(fedqcc.FormatFigure11(outcomes))
	case "network":
		fmt.Print(fedqcc.FormatNetworkStudy(network))
	case "lb":
		fmt.Print(fedqcc.FormatLoadBalanceStudy(lb))
	case "weighted":
		fmt.Print(fedqcc.FormatWeightedRoutingStudy(weighted))
	case "probes":
		fmt.Print(fedqcc.FormatProbes(probes))
	case "multitenant":
		fmt.Print(fedqcc.FormatMultitenantStudy(multitenant))
	case "all":
		fmt.Print(fedqcc.FormatFigure9(sens))
		fmt.Print(fedqcc.FormatTable1())
		fmt.Println()
		fmt.Print(fedqcc.FormatTable2(outcomes))
		fmt.Println()
		fmt.Print(fedqcc.FormatFigure10(outcomes))
		fmt.Println()
		fmt.Print(fedqcc.FormatFigure11(outcomes))
		fmt.Println()
		fmt.Print(fedqcc.FormatNetworkStudy(network))
		fmt.Println()
		fmt.Print(fedqcc.FormatLoadBalanceStudy(lb))
		fmt.Println()
		fmt.Print(fedqcc.FormatWeightedRoutingStudy(weighted))
		fmt.Println()
		fmt.Print(fedqcc.FormatProbes(probes))
		fmt.Println()
		fmt.Print(fedqcc.FormatMultitenantStudy(multitenant))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qccbench:", err)
		os.Exit(1)
	}
}
