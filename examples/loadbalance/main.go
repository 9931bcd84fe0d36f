// Loadbalance reproduces the paper's §4 scenario (Figures 7 and 8): origin
// servers S1 and S2 host the two halves of the schema, replicas R1 and R2
// mirror them. A federated join across the two source groups has 2×2 server
// combinations; QCC derives the alternative global plans with its simulated
// federated system (including the explain-with-masking trick), prunes them
// per server set, and rotates the near-optimal ones round-robin so the load
// spreads instead of hammering the single cheapest pair.
package main

import (
	"fmt"
	"log"
	"sort"

	fedqcc "repro"
)

const q6 = `SELECT o.o_id, l.l_price
	FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey
	WHERE o.o_amount > 9500 AND l.l_qty < 5`

func main() {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 50})
	if err != nil {
		log.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{
		LoadBalance: fedqcc.LBGlobal,
		LBCloseness: 0.5, // rotate plans within 50% of the cheapest
	})

	// 1. What-if analysis: derive every alternative global plan for Q6
	//    without executing anything, exactly as §4.2 describes.
	wi, err := cal.WhatIf()
	if err != nil {
		log.Fatal(err)
	}
	plans, err := wi.EnumeratePlans(q6, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what-if analysis derived %d alternative global plans for Q6:\n", len(plans))
	for _, p := range plans {
		fmt.Printf("  route %v  estimated %.2fms\n", p.Route, p.TotalCostMS)
	}

	// 2. The paper's trick: the same set via explain-runs with masked
	//    servers — four runs for the 2×2 combinations.
	masked, runs, err := wi.EnumerateByMasking(q6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmasking enumeration: %d winners from %d explain runs (paper: 4 runs for Q6)\n",
		len(masked), runs)

	// 3. Run Q6 repeatedly: the router rotates the near-optimal
	//    plans, spreading fragments across origins and replicas.
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		res, err := fed.Query(q6)
		if err != nil {
			log.Fatal(err)
		}
		for frag, server := range res.Route {
			counts[frag+"@"+server]++
		}
	}
	fmt.Printf("\nfragment placements over 12 executions (rotations: %d):\n", cal.RoutingStats().Rotations)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-8s ran %2d times\n", k, counts[k])
	}
	if cal.RoutingStats().Rotations == 0 {
		fmt.Println("  (no rotation happened — unexpected)")
	}
}
