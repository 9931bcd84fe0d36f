// Golden virtual-time test for the II merge: rows, fragment times, merge
// time, response time, first-row time and the final clock are pinned as
// literals for a fixed statement list on the paper, sharded and replica
// federations, on the columnar engine and wire. The lines
// were first recorded against a store-and-forward row merge, which returned
// the same rows, fragment times and merge times; they moved only where a
// change moved them on purpose: fewer bytes shipped per fragment once
// fragments select only the columns the merge reads (fragment, response,
// first-row and clock fields of multi-fragment lines), the merge's work placed
// on the clock where its batches arrived (resp, a first clamped to it, and the
// clock, only downwards), and a sharded table's shards read in arrival order
// with each hash join built on the input estimated to finish first (hash=
// wherever row order or a float fold follows the arrivals). The last replica
// statement's merge charge is the one documented exception (see its comment).
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
	// wire holds one line per statement plus the final clock.
	wire []string
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
		wire: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=13.841422776442307] merge=0.569 resp=14.410422776442307 first=14.410422776442307",
			"rows=4 hash=1b5b90dc7c787605 frags=[QF1=14.344005909455127] merge=0.5013333333333333 resp=14.84533924278846 first=14.84533924278846",
			"rows=396 hash=c36cb3458d485172 frags=[QF1=15.221917830712888] merge=0.632 resp=15.445352174147231 first=15.232824080712888",
			"rows=4 hash=0754aefe331ea019 frags=[QF1=14.235050252051282] merge=0.5013333333333333 resp=14.736383585384615 first=14.736383585384615",
			"rows=5 hash=9548c3db35326438 frags=[QF1=21.230729166666666] merge=0.5016666666666667 resp=21.73239583333333 first=21.73239583333333",
			"now=81.16989361209595",
		},
	},
	{
		name: "sharded-pushdown",
		build: func() (*fedqcc.Federation, error) {
			return fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 4, Scale: 50, Seed: 7})
		},
		sqls: goldenSharded,
		wire: []string{
			"rows=1016 hash=f51aed38500d5367 frags=[QF1.s0=14.680969460227272 QF1.s1=14.900800142045455 QF1.s2=14.766520241477274 QF1.s3=15.02074412555183] merge=1.516 resp=16.196969460227272 first=16.196969460227272",
			"rows=4 hash=381da1af3d74f1f4 frags=[QF1.s0=14.176828835227273 QF1.s1=14.283010653409091 QF1.s2=14.232828835227274 QF1.s3=14.49901065340909] merge=0.5253333333333333 resp=14.702162168560607 first=14.702162168560607",
			"rows=1 hash=958d5f54ecbaa0f0 frags=[QF1.s0=13.582414772727272 QF1.s1=13.560466904042968 QF1.s2=13.683356257375978 QF1.s3=13.873704642283212] merge=0.5043333333333333 resp=14.064800237376302 first=14.064800237376302",
			"rows=1 hash=a47a8743b2078d35 frags=[QF1.s0=12.220458626914818] merge=0.5003333333333333 resp=12.720791960248151 first=12.720791960248151",
			"rows=7 hash=05d01628f6d7d97f frags=[QF1.s0=14.135930397727273 QF1.s1=14.163651278409091 QF1.s2=13.948723366477273 QF1.s3=14.356827059659091] merge=2.1959999999999997 resp=16.42075630494211 first=16.42075630494211",
			"rows=4 hash=2cb1795d3ae01ad2 frags=[QF1.s0=13.206668678977273 QF1.s1=13.27178018465909 QF1.s2=13.236621803977272 QF1.s3=13.354389559659092] merge=3.1666666666666665 resp=15.958575309273064 first=15.958575309273064",
			"rows=213 hash=c809eb2442a9fd14 frags=[QF1=16.627423650568183 QF2.s0=13.562809303977273 QF2.s1=13.60087784090909 QF2.s2=13.497867897727273 QF2.s3=13.784100497159091] merge=2.926 resp=16.898796280411545 first=16.71010049715909",
			"rows=5 hash=fcba76c2c26a19c0 frags=[QF1=18.737286931818183 QF2.s0=15.328373247502896 QF2.s1=15.447612678781347 QF2.s2=15.39596124794986 QF2.s3=15.72316886776529] merge=7.176666666666667 resp=22.196142407455753 first=21.475519128181958",
			"now=129.15899412849478",
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
		wire: []string{
			"rows=207 hash=92db64af89d7a0e1 frags=[QF1=25.846111421130953] merge=0.569 resp=26.415111421130952 first=26.415111421130952",
			"rows=1067 hash=3dc320ff1d997f65 frags=[QF1=27.668773153133273 QF2=33.44689608879341] merge=4.953666666666667 resp=33.8532443162215 first=29.033375255460072",
			"rows=5 hash=f629db02562b0ce8 frags=[QF1=28.737286931818183 QF2=31.837555180895258] merge=7.176666666666667 resp=35.27188736450249 first=30.949383929950297",
			"rows=4 hash=8fec6db4d45037bd frags=[QF1=34.778359374999994 QF2=31.837555180895258] merge=7.173333333333333 resp=41.30960413024475 first=32.1970015522084",
			"rows=20 hash=eecba3639b20366e frags=[QF1=28.737286931818183 QF2=29.402103484623016] merge=7.833333333333333 resp=35.93255965909091 first=31.606050596616964",
			"rows=10 hash=841ac2a69ef38a63 frags=[QF1=26.627423650568183 QF2=31.837555180895258] merge=13.833333333333334 resp=41.11695518089526 first=37.168935389228594",
			"rows=256 hash=ba653a2dcd03ecec frags=[QF1=18.90867944541594 QF2=20.390414186507936] merge=0.9573333333333334 resp=21.319836927032718 first=21.319836927032718",
			"rows=5 hash=f259b3f759cb3eb8 frags=[QF1=26.627423650568183 QF2=31.837555180895258] merge=6.5 resp=32.480312539457074 first=29.835602055895258",
			"now=267.6995115385757",
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
	for _, gf := range goldenFederations {
		t.Run(gf.name+"/vectorized-wire", func(t *testing.T) {
			fed, err := gf.build()
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(gf.sqls)+1)
			for _, q := range gf.sqls {
				res, err := fed.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				got = append(got, goldenLine(res))
				var slowest fedqcc.Time
				for _, ft := range res.FragmentTimes {
					slowest = max(slowest, ft)
				}
				if res.ResponseTime < slowest || res.ResponseTime > slowest+res.MergeTime {
					t.Errorf("%s: response %v outside [slowest fragment %v, + merge %v]", q, res.ResponseTime, slowest, res.MergeTime)
				}
				if res.FirstRowTime > res.ResponseTime {
					t.Errorf("%s: first row %v after the response %v", q, res.FirstRowTime, res.ResponseTime)
				}
			}
			got = append(got, fmt.Sprintf("now=%v", float64(fed.Now())))
			want := gf.wire
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
			if t.Failed() {
				t.Logf("the lines, to re-record:\n%s", goldenLiteral(got))
			}
		})
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
