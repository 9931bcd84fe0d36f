package fedqcc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/admission"
	"repro/internal/experiment"
)

// TestAdmissionPassThroughAllocations holds the disabled (pass-through)
// admission gate to its allocation budget: one allocation per Admit+Release
// round trip (the Grant), and one per query against a federation with no gate
// at all — 214.1 allocations per query without the gate and 215.2 with it
// over the 16 RandomQuery statements of seed 7 on the paper federation at
// scale 100. The query budget leaves room for the allocation a -race build
// adds.
func TestAdmissionPassThroughAllocations(t *testing.T) {
	fed, err := NewPaperFederation(FederationOptions{Scale: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req := admission.Request{Query: "bench", CostMS: 5}
	if got := testing.AllocsPerRun(1000, func() {
		g, err := fed.adm.Admit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}); got > 1 {
		t.Errorf("pass-through Admit+Release: %.2f allocations, budget 1", got)
	}

	sqls := make([]string, 0, 16)
	r := rand.New(rand.NewSource(7))
	for len(sqls) < cap(sqls) {
		sqls = append(sqls, experiment.RandomQuery(r))
	}
	perQuery := func(gated bool) float64 {
		fed, err := NewPaperFederation(FederationOptions{Scale: 100, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !gated {
			fed.ii.SetAdmission(nil)
		}
		return testing.AllocsPerRun(5, func() {
			for _, q := range sqls {
				if _, err := fed.Query(q); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(sqls))
	}
	gated, ungated := perQuery(true), perQuery(false)
	if gated > ungated+2 {
		t.Errorf("the pass-through gate costs %.3f allocations per query (%.3f gated, %.3f without a gate), budget 2",
			gated-ungated, gated, ungated)
	}
}
