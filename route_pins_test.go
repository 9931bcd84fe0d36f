package fedqcc_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	fedqcc "repro"
	"repro/internal/workload"
)

// routeHasher folds every query's Route (fragment → server, in fragment-ID
// order) into one FNV-1a hash: one literal pins a whole route sequence.
type routeHasher struct {
	t   *testing.T
	fed *fedqcc.Federation
	seq []string
}

func (h *routeHasher) query(sql string) {
	h.t.Helper()
	res, err := h.fed.Query(sql)
	if err != nil {
		h.t.Fatalf("%q: %v", sql, err)
	}
	frags := make([]string, 0, len(res.Route))
	for f := range res.Route {
		frags = append(frags, f)
	}
	sort.Strings(frags)
	step := ""
	for _, f := range frags {
		step += f + "@" + res.Route[f] + " "
	}
	h.seq = append(h.seq, step)
}

func (h *routeHasher) sum() string {
	d := fnv.New64a()
	for _, s := range h.seq {
		d.Write([]byte(s + "\n"))
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// hotBurst is experiment.weightedBurstQueries: four scan shapes, one per hot
// table, a period coprime with the three-replica rotation.
var hotBurst = []string{
	"SELECT SUM(h.h_val) FROM hot1 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot2 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot3 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot4 AS h WHERE h.h_val > 1000",
}

// xjoinTemplates are bench/'s xjoin_churn templates at fixed parameters.
var xjoinTemplates = []string{
	"SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 4200 AND 4700 AND l.l_qty BETWEEN 12 AND 21",
	"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 3000 AND 5000 GROUP BY o.o_priority ORDER BY o.o_priority",
	"SELECT c.c_segment, COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_discount BETWEEN 0.0400 AND 0.0900 GROUP BY c.c_segment ORDER BY c.c_segment",
	"SELECT COUNT(*), AVG(o.o_amount), MAX(o.o_qty) FROM orders AS o WHERE o.o_amount BETWEEN 2500 AND 7500",
}

// TestRouteSequencePinned pins the server every fragment of every query ran
// on, for the four routing configurations the benchmark and the studies
// exercise. The literals were captured from the three policy
// implementations this router replaced (the LBGlobal ones after their
// map-order tie was fixed) and must never be re-captured to make a routing
// change pass: a changed hash is a changed route sequence.
func TestRouteSequencePinned(t *testing.T) {
	replicated := func() (*fedqcc.Federation, error) {
		return fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	}
	hotspot := func(h *routeHasher, cal *fedqcc.Calibrator) {
		for i := 0; i < 6*len(hotBurst); i++ {
			h.query(hotBurst[i%len(hotBurst)])
			cal.PublishNow()
		}
	}
	cases := []struct {
		name  string
		build func() (*fedqcc.Federation, error)
		drive func(h *routeHasher)
		want  string
	}{
		{
			name: "xjoin_churn fragment rotation",
			build: func() (*fedqcc.Federation, error) {
				return fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100, Seed: 42})
			},
			drive: func(h *routeHasher) {
				cal := h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBFragment, LBCloseness: 0.5})
				n := 0
				for round := 0; round < 8; round++ {
					for _, id := range []string{"S1", "R1"} {
						srv, err := h.fed.Server(id)
						if err != nil {
							t.Fatal(err)
						}
						if err := srv.ApplyUpdateBurst("orders", 20, int64(round)); err != nil {
							t.Fatal(err)
						}
					}
					for _, sql := range xjoinTemplates {
						h.query(sql)
						if n++; n%8 == 0 {
							cal.PublishNow()
						}
					}
				}
			},
			want: "d9cca650d6156a11",
		},
		{
			name: "paper_mix load flips",
			build: func() (*fedqcc.Federation, error) {
				return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 20, Seed: 42})
			},
			drive: func(h *routeHasher) {
				h.fed.EnableQCC(fedqcc.QCCOptions{})
				phases := workload.Phases()
				for _, ph := range []workload.Phase{phases[0], phases[1], phases[3]} {
					for _, id := range []string{"S1", "S2", "S3"} {
						srv, err := h.fed.Server(id)
						if err != nil {
							t.Fatal(err)
						}
						srv.SetLoad(ph.LoadLevel(id))
					}
					for round := 0; round < 6; round++ {
						for _, it := range workload.UniformMix(2) {
							h.query(it.SQL)
						}
					}
				}
			},
			want: "4e33786aeb61bce4",
		},
		{
			name:  "hotspot global rotation",
			build: replicated,
			drive: func(h *routeHasher) {
				hotspot(h, h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal, LBCloseness: 0.2}))
			},
			want: "96cc8835d906b8e5",
		},
		{
			name:  "hotspot weighted",
			build: replicated,
			drive: func(h *routeHasher) {
				cal := h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal, LBCloseness: 0.2})
				cal.EnableWeightedRouting(fedqcc.WeightedRoutingOptions{})
				hotspot(h, cal)
			},
			want: "7aeb3712b008e915",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fed, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			h := &routeHasher{t: t, fed: fed}
			tc.drive(h)
			if got := h.sum(); got != tc.want {
				t.Errorf("route sequence hash = %s, want %s\n%v", got, tc.want, h.seq)
			}
		})
	}
}
