// Reroute demonstrates the paper's §6 extension for long-running queries:
// "periodically re-check the load and switch data sources if needed". Just
// before a fragment dispatches, the router re-prices the fragment's compiled
// menu (the servers the optimizer offered it) with QCC's current calibration,
// running no Explain, and moves the fragment only when its server left the
// menu (fenced, banned by a cost policy, or masked) or its cost left the
// closeness band of the menu's cheapest. §4's rotation picks within that same
// band, so the re-check never undoes a rotated pick that conditions still
// support; it guards a plan whose calibration moved between compile and
// dispatch. A down server no probe has fenced yet fails its dispatch, and the
// retry's menu leaves it out.
package main

import (
	"fmt"
	"log"

	fedqcc "repro"
)

const q = `SELECT SUM(o.o_amount)
	FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id
	WHERE c.c_discount > 0.02`

func main() {
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50})
	if err != nil {
		log.Fatal(err)
	}
	// Global rotation routes each query from the statement's rotation set,
	// which follows QCC's published costs, and the dispatch-time re-check
	// prices every fragment's menu again. (QCCOptions{LoadBalance,
	// LBCloseness, RuntimeReroute} sets the same policy at EnableQCC time.)
	cal := fed.EnableQCC(fedqcc.QCCOptions{})
	cal.SetRouting(fedqcc.LBGlobal, 1.0 /* rotate across all three replicas */, true)

	res, err := fed.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	target := res.Route["QF1"]
	fmt.Printf("calm system compiles and runs on %s (%.2fms)\n",
		target, float64(res.ResponseTime))

	// The target's load spikes AFTER the statement is cached; QCC observes
	// these queries but publishes the new factors only below.
	h, _ := fed.Server(target)
	h.SetLoad(1.0)
	for i := 0; i < 3; i++ {
		fed.Query(q) //nolint:errcheck
	}
	cal.PublishNow()
	fmt.Printf("\n%s is now overloaded (factor %.2f)\n", target, cal.ServerFactor(target))

	// The publish moves the ranking: another replica is now the winner and
	// the band changed, so the statement's rotation set is re-derived and
	// starts at the new winner. The overloaded server still costs less than
	// twice the winner, inside the band of closeness 1.0, so the rotation
	// keeps it and the re-check, pricing the same menu with the same factors,
	// agrees: no dispatch switches.
	for i := 0; i < 3; i++ {
		res, err = fed.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dispatch ran on %s in %.2fms\n",
			res.Route["QF1"], float64(res.ResponseTime))
	}
	st := cal.RoutingStats()
	fmt.Printf("dispatch rescore: %d/%d dispatches switched\n", st.RescoreSwitches, st.RescoreChecks)

	// Hard failure: a probe fences the target, which calibrates it to +Inf,
	// so it leaves every menu: the query runs on a surviving replica without
	// a retry.
	h.SetDown(true)
	cal.ProbeNow()
	res, err = fed.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s is down and fenced; the query ran on %s (retries: %d)\n",
		target, res.Route["QF1"], res.Retried)
}
