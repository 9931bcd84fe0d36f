// Golden virtual-time test for the II merge: rows, fragment times, merge
// time, response time, first-row time and the final clock are pinned as
// literals for a fixed statement list on the paper, sharded (pushdown on and
// off) and replica federations. The row and vectorized engines must both
// reproduce the same literals; the columnar wire changes shipped bytes, so it
// has its own. The literals were recorded before the merge was collapsed to
// one operator tree (PR 14) — the last replica statement is the one documented
// exception — and have to survive any later rewrite of it.
package fedqcc_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	fedqcc "repro"
)

type goldenFederation struct {
	name  string
	build func() (*fedqcc.Federation, error)
	sqls  []string
	// plain holds one line per statement plus the final clock for the row
	// wire (row and vectorized engines alike); wire the same under the
	// columnar wire.
	plain, wire []string
}

var goldenSharded = []string{
	"SELECT l_id, l_price FROM lineitem WHERE l_price > 500",
	"SELECT l_tag, SUM(l_price), COUNT(*) FROM lineitem GROUP BY l_tag",
	"SELECT AVG(l_qty) FROM lineitem WHERE l_orderkey < 500",
	"SELECT COUNT(*) FROM lineitem WHERE l_orderkey = 37",
	"SELECT l_id, l_orderkey FROM lineitem WHERE l_qty < 10 ORDER BY l_price DESC LIMIT 7",
	"SELECT DISTINCT l_tag FROM lineitem",
	"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 5",
	"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey GROUP BY o.o_priority ORDER BY o.o_priority",
}

var goldenFederations = []goldenFederation{
	{
		name: "paper",
		build: func() (*fedqcc.Federation, error) {
			return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50, Seed: 7})
		},
		sqls: []string{
			"SELECT o.o_id, o.o_amount FROM orders AS o WHERE o.o_amount > 9000",
			"SELECT l.l_tag, COUNT(*), AVG(l.l_price) FROM lineitem AS l GROUP BY l.l_tag",
			"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_priority = 1",
			"SELECT c.c_segment, SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id GROUP BY c.c_segment ORDER BY c.c_segment",
			"SELECT l.l_id FROM lineitem AS l ORDER BY l.l_price DESC LIMIT 5",
		},
		plain: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=14.955192307692307] merge=0.569 resp=15.524192307692307 first=15.524192307692307",
			"rows=4 hash=1b5b90dc7c787605 frags=[QF1=14.368419971955127] merge=0.5013333333333333 resp=14.86975330528846 first=14.86975330528846",
			"rows=396 hash=c36cb3458d485172 frags=[QF1=17.35326548696289] merge=0.632 resp=17.98526548696289 first=16.610265486962888",
			"rows=4 hash=0754aefe331ea019 frags=[QF1=14.247745564551282] merge=0.5013333333333333 resp=14.749078897884615 first=14.749078897884615",
			"rows=5 hash=9548c3db35326438 frags=[QF1=21.260026041666666] merge=0.5016666666666667 resp=21.76169270833333 first=21.76169270833333",
			"now=84.8899827061616",
		},
		wire: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=13.841422776442307] merge=0.569 resp=14.410422776442307 first=14.410422776442307",
			"rows=4 hash=1b5b90dc7c787605 frags=[QF1=14.344005909455127] merge=0.5013333333333333 resp=14.84533924278846 first=14.84533924278846",
			"rows=396 hash=c36cb3458d485172 frags=[QF1=15.221917830712888] merge=0.632 resp=15.853917830712888 first=15.232824080712888",
			"rows=4 hash=0754aefe331ea019 frags=[QF1=14.235050252051282] merge=0.5013333333333333 resp=14.736383585384615 first=14.736383585384615",
			"rows=5 hash=9548c3db35326438 frags=[QF1=21.230729166666666] merge=0.5016666666666667 resp=21.73239583333333 first=21.73239583333333",
			"now=81.5784592686616",
		},
	},
	{
		name: "sharded-pushdown",
		build: func() (*fedqcc.Federation, error) {
			return fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 4, Scale: 50, Seed: 7})
		},
		sqls: goldenSharded,
		plain: []string{
			"rows=1016 hash=15b0df6890f36893 frags=[QF1.s0=18.154512428977274 QF1.s1=18.82537317545063 QF1.s2=18.398055397727273 QF1.s3=19.205877960983486] merge=1.516 resp=20.721877960983484 first=20.243362335983484",
			"rows=4 hash=c6da499c10d92131 frags=[QF1.s0=14.201242897727273 QF1.s1=14.307424715909091 QF1.s2=14.257242897727274 QF1.s3=14.52342471590909] merge=0.5253333333333333 resp=15.048758049242425 first=15.048758049242425",
			"rows=1 hash=958d5f54ecbaa0f0 frags=[QF1.s0=13.593156960227272 QF1.s1=13.571209091542968 QF1.s2=13.694098444875978 QF1.s3=13.884446829783212] merge=0.5043333333333333 resp=14.388780163116545 first=14.388780163116545",
			"rows=1 hash=a47a8743b2078d35 frags=[QF1.s0=12.230224251914818] merge=0.5003333333333333 resp=12.730557585248151 first=12.730557585248151",
			"rows=7 hash=05d01628f6d7d97f frags=[QF1.s0=15.573063210227273 QF1.s1=15.54823721590909 QF1.s2=15.046254616477272 QF1.s3=15.86350284090909] merge=2.1959999999999997 resp=18.05950284090909 first=18.05950284090909",
			"rows=4 hash=2cb1795d3ae01ad2 frags=[QF1.s0=22.362221142606398 QF1.s1=22.844516692789966 QF1.s2=22.686723989573572 QF1.s3=23.932101650272145] merge=3.1666666666666665 resp=27.098768316938813 first=21.149366953206634",
			"rows=213 hash=295cd4b66df2cca2 frags=[QF1=56.10970401837993 QF2.s0=14.371067116477272 QF2.s1=14.34379971590909 QF2.s2=14.099910866477273 QF2.s3=14.68936221590909] merge=2.926 resp=59.03570401837993 first=21.51226651837993",
			"rows=5 hash=8e0f70268f7c977a frags=[QF1=56.10970401837993 QF2.s0=22.358803173856398 QF2.s1=22.841098724039966 QF2.s2=22.683306020823572 QF2.s3=23.928683681522145] merge=7.176666666666667 resp=63.2863706850466 first=25.762933185046595",
			"now=230.37031961986503",
		},
		wire: []string{
			"rows=1016 hash=15b0df6890f36893 frags=[QF1.s0=14.810762428977274 QF1.s1=15.065607550450627 QF1.s2=14.898543678977273 QF1.s3=15.211249054733486] merge=1.516 resp=16.727249054733484 first=16.570999054733484",
			"rows=4 hash=c6da499c10d92131 frags=[QF1.s0=14.176828835227273 QF1.s1=14.283010653409091 QF1.s2=14.232828835227274 QF1.s3=14.49901065340909] merge=0.5253333333333333 resp=15.024343986742425 first=15.024343986742425",
			"rows=1 hash=958d5f54ecbaa0f0 frags=[QF1.s0=13.582414772727272 QF1.s1=13.560466904042968 QF1.s2=13.683356257375978 QF1.s3=13.873704642283212] merge=0.5043333333333333 resp=14.378037975616545 first=14.378037975616545",
			"rows=1 hash=a47a8743b2078d35 frags=[QF1.s0=12.220458626914818] merge=0.5003333333333333 resp=12.720791960248151 first=12.720791960248151",
			"rows=7 hash=05d01628f6d7d97f frags=[QF1.s0=13.968082741477273 QF1.s1=14.00136221590909 QF1.s2=13.817250710227272 QF1.s3=14.18088565340909] merge=2.1959999999999997 resp=16.37688565340909 first=16.37688565340909",
			"rows=4 hash=2cb1795d3ae01ad2 frags=[QF1.s0=15.591225048856398 QF1.s1=15.732700286539968 QF1.s2=15.67305211457357 QF1.s3=16.076632900272145] merge=3.1666666666666665 resp=19.243299566938813 first=17.468885504438813",
			"rows=213 hash=295cd4b66df2cca2 frags=[QF1=25.00960636212993 QF2.s0=13.576633522727272 QF2.s1=13.61381924715909 QF2.s2=13.511043678977273 QF2.s3=13.79727237215909] merge=2.926 resp=27.93560636212993 first=17.53619229962993",
			"rows=5 hash=8e0f70268f7c977a frags=[QF1=25.00960636212993 QF2.s0=15.587807080106398 QF2.s1=15.729282317789968 QF2.s2=15.66963414582357 QF2.s3=16.073214931522145] merge=7.176666666666667 resp=32.1862730287966 first=21.786858966296595",
			"now=154.59248758861503",
		},
	},
	{
		name: "sharded-shipall",
		build: func() (*fedqcc.Federation, error) {
			fed, err := fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 4, Scale: 50, Seed: 7})
			if err == nil {
				fed.SetShardPushdown(false)
			}
			return fed, err
		},
		sqls: goldenSharded,
		plain: []string{
			"rows=1016 hash=15b0df6890f36893 frags=[QF1.s0=18.154512428977274 QF1.s1=18.82537317545063 QF1.s2=18.398055397727273 QF1.s3=19.205877960983486] merge=1.516 resp=20.721877960983484 first=20.243362335983484",
			"rows=4 hash=f88b5f0e98a68300 frags=[QF1.s0=22.362221142606398 QF1.s1=22.844516692789966 QF1.s2=22.686723989573572 QF1.s3=23.932101650272145] merge=3.1706666666666665 resp=27.10276831693881 first=21.153366953206632",
			"rows=1 hash=958d5f54ecbaa0f0 frags=[QF1.s0=15.969432703619363 QF1.s1=15.765197372792969 QF1.s2=16.096555476125978 QF1.s3=16.59274761103321] merge=1.0303333333333333 resp=17.623080944366546 first=17.623080944366546",
			"rows=1 hash=a47a8743b2078d35 frags=[QF1.s0=12.230224251914818] merge=0.5003333333333333 resp=12.730557585248151 first=12.730557585248151",
			"rows=7 hash=05d01628f6d7d97f frags=[QF1.s0=15.573063210227273 QF1.s1=15.54823721590909 QF1.s2=15.046254616477272 QF1.s3=15.86350284090909] merge=2.1959999999999997 resp=18.05950284090909 first=18.05950284090909",
			"rows=4 hash=2cb1795d3ae01ad2 frags=[QF1.s0=22.362221142606398 QF1.s1=22.844516692789966 QF1.s2=22.686723989573572 QF1.s3=23.932101650272145] merge=3.1666666666666665 resp=27.098768316938813 first=21.149366953206634",
			"rows=213 hash=295cd4b66df2cca2 frags=[QF1=56.10970401837993 QF2.s0=14.371067116477272 QF2.s1=14.34379971590909 QF2.s2=14.099910866477273 QF2.s3=14.68936221590909] merge=2.926 resp=59.03570401837993 first=21.51226651837993",
			"rows=5 hash=8e0f70268f7c977a frags=[QF1=56.10970401837993 QF2.s0=22.358803173856398 QF2.s1=22.841098724039966 QF2.s2=22.683306020823572 QF2.s3=23.928683681522145] merge=7.176666666666667 resp=63.2863706850466 first=25.762933185046595",
			"now=245.6586306688114",
		},
		wire: []string{
			"rows=1016 hash=15b0df6890f36893 frags=[QF1.s0=14.810762428977274 QF1.s1=15.065607550450627 QF1.s2=14.898543678977273 QF1.s3=15.211249054733486] merge=1.516 resp=16.727249054733484 first=16.570999054733484",
			"rows=4 hash=f88b5f0e98a68300 frags=[QF1.s0=15.591225048856398 QF1.s1=15.732700286539968 QF1.s2=15.67305211457357 QF1.s3=16.076632900272145] merge=3.1706666666666665 resp=19.24729956693881 first=17.47288550443881",
			"rows=1 hash=958d5f54ecbaa0f0 frags=[QF1.s0=14.137889734869363 QF1.s1=14.030822372792969 QF1.s2=14.198117976125978 QF1.s3=14.45554057978321] merge=1.0303333333333333 resp=15.485873913116544 first=15.485873913116544",
			"rows=1 hash=a47a8743b2078d35 frags=[QF1.s0=12.220458626914818] merge=0.5003333333333333 resp=12.720791960248151 first=12.720791960248151",
			"rows=7 hash=05d01628f6d7d97f frags=[QF1.s0=13.968082741477273 QF1.s1=14.00136221590909 QF1.s2=13.817250710227272 QF1.s3=14.18088565340909] merge=2.1959999999999997 resp=16.37688565340909 first=16.37688565340909",
			"rows=4 hash=2cb1795d3ae01ad2 frags=[QF1.s0=15.591225048856398 QF1.s1=15.732700286539968 QF1.s2=15.67305211457357 QF1.s3=16.076632900272145] merge=3.1666666666666665 resp=19.243299566938813 first=17.468885504438813",
			"rows=213 hash=295cd4b66df2cca2 frags=[QF1=25.00960636212993 QF2.s0=13.576633522727272 QF2.s1=13.61381924715909 QF2.s2=13.511043678977273 QF2.s3=13.79727237215909] merge=2.926 resp=27.93560636212993 first=17.53619229962993",
			"rows=5 hash=8e0f70268f7c977a frags=[QF1=25.00960636212993 QF2.s0=15.587807080106398 QF2.s1=15.729282317789968 QF2.s2=15.66963414582357 QF2.s3=16.073214931522145] merge=7.176666666666667 resp=32.1862730287966 first=21.786858966296595",
			"now=159.92327910631144",
		},
	},
	{
		name: "replica",
		build: func() (*fedqcc.Federation, error) {
			return fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 50, Seed: 7})
		},
		sqls: []string{
			"SELECT o.o_id, o.o_amount FROM orders AS o WHERE o.o_amount > 9000",
			"SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 5000",
			"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey GROUP BY o.o_priority ORDER BY o.o_priority",
			"SELECT c.c_segment, COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id GROUP BY c.c_segment ORDER BY c.c_segment",
			"SELECT DISTINCT o.o_priority, l.l_tag FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey",
			"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey ORDER BY l.l_price DESC LIMIT 10",
			"SELECT o.o_id, p.p_type FROM orders AS o JOIN parts AS p ON o.o_qty < p.p_weight WHERE o.o_id < 40 AND p.p_id < 30",
			// The one shape PR 14 changed: a multi-fragment join with LIMIT and
			// no ORDER BY / GROUP BY / DISTINCT. The replayed merge tail stopped
			// pulling after one 256-row batch and recorded merge=5.3373333333333335
			// (final clocks 497.83572372821453 / 307.1877234867744); the
			// materialized merge projects every joined row: merge=6.5.
			"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey LIMIT 5",
		},
		plain: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=26.959880952380953] merge=0.569 resp=27.528880952380952 first=27.528880952380952",
			"rows=1067 hash=3dc320ff1d997f65 frags=[QF1=46.08669726045344 QF2=62.281925210497114] merge=4.953666666666667 resp=67.23559187716378 first=34.35872330212011",
			"rows=5 hash=f629db02562b0ce8 frags=[QF1=62.49617136460715 QF2=62.281925210497114] merge=7.176666666666667 resp=69.67283803127381 first=33.856052814663784",
			"rows=4 hash=8fec6db4d45037bd frags=[QF1=90.26495184897136 QF2=62.281925210497114] merge=7.173333333333333 resp=97.4382851823047 first=40.016410182304696",
			"rows=20 hash=eecba3639b20366e frags=[QF1=62.49617136460715 QF2=62.281925210497114] merge=7.833333333333333 resp=70.32950469794048 first=34.51271948133045",
			"rows=10 hash=841ac2a69ef38a63 frags=[QF1=62.49617136460715 QF2=62.281925210497114] merge=13.833333333333334 resp=76.32950469794048 first=40.51271948133045",
			"rows=256 hash=ba653a2dcd03ecec frags=[QF1=19.66354830702308 QF2=20.510280257936508] merge=0.9573333333333334 resp=21.467613591269842 first=21.467613591269842",
			"rows=5 hash=f259b3f759cb3eb8 frags=[QF1=62.49617136460715 QF2=62.281925210497114] merge=6.5 resp=68.99617136460715 first=33.179386147997114",
			"now=498.9983903948812",
		},
		wire: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=25.846111421130953] merge=0.569 resp=26.415111421130952 first=26.415111421130952",
			"rows=1067 hash=3dc320ff1d997f65 frags=[QF1=30.05300585420344 QF2=33.527042397997114] merge=4.953666666666667 resp=38.480709064663785 first=30.379719395870108",
			"rows=5 hash=f629db02562b0ce8 frags=[QF1=31.396073708357154 QF2=33.527042397997114] merge=7.176666666666667 resp=40.703709064663784 first=30.18320125216378",
			"rows=4 hash=8fec6db4d45037bd frags=[QF1=45.508604192721364 QF2=33.527042397997114] merge=7.173333333333333 resp=52.681937526054696 first=34.289359401054696",
			"rows=20 hash=eecba3639b20366e frags=[QF1=31.396073708357154 QF2=33.527042397997114] merge=7.833333333333333 resp=41.36037573133045 first=30.839867918830446",
			"rows=10 hash=841ac2a69ef38a63 frags=[QF1=31.396073708357154 QF2=33.527042397997114] merge=13.833333333333334 resp=47.36037573133045 first=36.83986791883045",
			"rows=256 hash=ba653a2dcd03ecec frags=[QF1=19.04440768202308 QF2=20.363795882936508] merge=0.9573333333333334 resp=21.321129216269842 first=21.321129216269842",
			"rows=5 hash=f259b3f759cb3eb8 frags=[QF1=31.396073708357154 QF2=33.527042397997114] merge=6.5 resp=40.027042397997114 first=29.506534585497114",
			"now=308.3503901534411",
		},
	},
}

// goldenLine renders everything the virtual-time model exposes for one query.
// Floats print in their shortest round-tripping form, so equal lines mean
// bit-equal times.
func goldenLine(res *fedqcc.QueryResult) string {
	h := fnv.New64a()
	for _, row := range res.Rows.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%d:%s|", v.Kind(), v.String())
		}
		h.Write([]byte{'\n'})
	}
	ids := make([]string, 0, len(res.FragmentTimes))
	for id := range res.FragmentTimes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	frags := make([]string, len(ids))
	for i, id := range ids {
		frags[i] = fmt.Sprintf("%s=%v", id, float64(res.FragmentTimes[id]))
	}
	return fmt.Sprintf("rows=%d hash=%016x frags=[%s] merge=%v resp=%v first=%v",
		len(res.Rows.Rows), h.Sum64(), strings.Join(frags, " "),
		float64(res.MergeTime), float64(res.ResponseTime), float64(res.FirstRowTime))
}

func TestMergeGoldenVirtualTime(t *testing.T) {
	engines := []struct {
		name             string
		vectorized, wire bool
	}{
		{"row", false, false},
		{"vectorized", true, false},
		{"vectorized-wire", true, true},
	}
	for _, gf := range goldenFederations {
		for _, eng := range engines {
			t.Run(gf.name+"/"+eng.name, func(t *testing.T) {
				fed, err := gf.build()
				if err != nil {
					t.Fatal(err)
				}
				fed.SetVectorized(eng.vectorized)
				fed.SetColumnarWire(eng.wire)
				got := make([]string, 0, len(gf.sqls)+1)
				for _, q := range gf.sqls {
					res, err := fed.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					got = append(got, goldenLine(res))
				}
				got = append(got, fmt.Sprintf("now=%v", float64(fed.Now())))
				want := gf.plain
				if eng.wire {
					want = gf.wire
				}
				if len(want) != len(got) {
					t.Fatalf("golden has %d lines, run produced %d:\n%s", len(want), len(got), goldenLiteral(got))
				}
				for i := range got {
					if got[i] != want[i] {
						stmt := "final clock"
						if i < len(gf.sqls) {
							stmt = gf.sqls[i]
						}
						t.Errorf("%s\n got  %s\n want %s", stmt, got[i], want[i])
					}
				}
			})
		}
	}
}

// goldenLiteral renders lines as a Go string-slice body, for re-recording.
func goldenLiteral(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "\t\t\t%q,\n", l)
	}
	return b.String()
}
