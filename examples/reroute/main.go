// Reroute demonstrates the paper's §6 extension for long-running queries:
// "periodically re-check the load and switch data sources if needed". A
// plan compiled while the system was calm goes stale when its target server
// crashes or overloads; with runtime rerouting enabled, the fragment
// re-checks calibrated costs at dispatch time and moves — the stale plan
// executes successfully without a recompile.
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
	// which follows QCC's published costs; between publishes a compiled
	// plan can bind an overloaded server — the staleness the §6 extension
	// guards against. The dispatch-time rescore re-checks every fragment.
	// (QCCOptions{LoadBalance, LBCloseness, RuntimeReroute} sets the same
	// policy at EnableQCC time.)
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
	// starts at the new winner. The overloaded server is still inside the
	// band; the rescore moves the pick that lands on it at dispatch.
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

	// Hard failure: the compiled target dies between compile and dispatch.
	// The rescore saves the execution without a retry loop.
	h.SetDown(true)
	cal.ProbeNow()
	res, err = fed.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s is down; dispatch-time switch ran the query on %s (retries: %d)\n",
		target, res.Route["QF1"], res.Retried)
}
