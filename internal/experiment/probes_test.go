package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	probesOnce   sync.Once
	probesCached []ProbeRow
	probesErr    error
)

// probeRows runs every probe once per test binary.
func probeRows(t *testing.T) []ProbeRow {
	t.Helper()
	probesOnce.Do(func() { probesCached, probesErr = Probes() })
	if probesErr != nil {
		t.Fatal(probesErr)
	}
	return probesCached
}

// probeConfigs indexes one probe's rows by configuration.
func probeConfigs(t *testing.T, probe string) map[string]ProbeRow {
	t.Helper()
	out := map[string]ProbeRow{}
	for _, r := range probeRows(t) {
		if r.Probe == probe {
			out[r.Config] = r
		}
	}
	if len(out) == 0 {
		t.Fatalf("probe %s produced no rows", probe)
	}
	return out
}

// TestProbesGolden pins every probe row, every float at full precision. The
// literals were captured when the probes were written, after checking that
// every virtual and byte number of the study emitters they replaced reappears
// in them; they are never re-captured to make a change pass. A change that
// moves a row on purpose re-captures it (`go run ./cmd/qccbench -exp probes`)
// and states the moved rows as its claim; a failure lists each drifted row's
// moved fields with their deltas (probeDrift), so "none rose" reads off it.
func TestProbesGolden(t *testing.T) {
	got := map[string]string{}
	for _, r := range probeRows(t) {
		got[r.Probe] += formatProbeRow(r)
	}
	for name, want := range goldenProbes {
		if got[name] != want {
			t.Errorf("probe %s drifted from its pinned rows:\n%s", name, probeDrift(got[name], want))
		}
	}
	for name := range got {
		if _, ok := goldenProbes[name]; !ok {
			t.Errorf("probe %s has no pinned rows", name)
		}
	}
}

// probeDrift lists how one probe's rendered rows moved, a line per row that
// differs: its configuration, then every field that moved as pinned → got,
// with the delta for a number. A row on one side only is shown whole.
func probeDrift(got, want string) string {
	parse := func(s string) (configs []string, fields map[string][][2]string) {
		fields = map[string][][2]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			config, rest, _ := strings.Cut(line, ": ")
			configs = append(configs, config)
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				fields[config] = append(fields[config], [2]string{k, v})
			}
		}
		return configs, fields
	}
	gotConfigs, gotFields := parse(got)
	wantConfigs, wantFields := parse(want)
	var b strings.Builder
	for _, config := range wantConfigs {
		g, ok := gotFields[config]
		if !ok {
			fmt.Fprintf(&b, "  %s: row gone (pinned %v)\n", config, wantFields[config])
			continue
		}
		var moved []string
		for i, w := range wantFields[config] {
			if i >= len(g) || g[i] != w {
				moved = append(moved, fieldDelta(w, g, i))
			}
		}
		if len(moved) > 0 {
			fmt.Fprintf(&b, "  %s: %s\n", config, strings.Join(moved, ", "))
		}
	}
	for _, config := range gotConfigs {
		if _, ok := wantFields[config]; !ok {
			fmt.Fprintf(&b, "  %s: new row %v\n", config, gotFields[config])
		}
	}
	return b.String()
}

// fieldDelta renders pinned field w against got's field i.
func fieldDelta(w [2]string, got [][2]string, i int) string {
	if i >= len(got) || got[i][0] != w[0] {
		return fmt.Sprintf("%s=%s → field missing", w[0], w[1])
	}
	old, errOld := strconv.ParseFloat(w[1], 64)
	now, errNow := strconv.ParseFloat(got[i][1], 64)
	if errOld != nil || errNow != nil {
		return fmt.Sprintf("%s %s → %s", w[0], w[1], got[i][1])
	}
	return fmt.Sprintf("%s %s → %s (%+.6g)", w[0], w[1], got[i][1], now-old)
}

// TestProbeDriftListsMovedFields: the failure report names each drifted
// row's moved fields with their deltas and leaves unmoved rows out.
func TestProbeDriftListsMovedFields(t *testing.T) {
	want := "a: q=1 mean=10 wire=5 exec=S1:1\nb: q=1 mean=3 wire=7 exec=S1:1\nc: q=1 mean=1\n"
	got := "a: q=1 mean=9.5 wire=5 exec=S2:1\nb: q=1 mean=3 wire=7 exec=S1:1\nd: q=1 mean=2\n"
	const report = "  a: mean 10 → 9.5 (-0.5), exec S1:1 → S2:1\n" +
		"  c: row gone (pinned [[q 1] [mean 1]])\n" +
		"  d: new row [[q 1] [mean 2]]\n"
	if r := probeDrift(got, want); r != report {
		t.Fatalf("report:\n%s\nwant:\n%s", r, report)
	}
}

// TestShardedProbePushdownPays: at every sharded count pushdown ships fewer
// bytes than shipping the rows, and four shards with pushdown answer faster
// than one server.
func TestShardedProbePushdownPays(t *testing.T) {
	rows := probeConfigs(t, "sharded")
	for _, n := range []int{2, 4, 8} {
		push, ship := rows[fmt.Sprintf("shards=%d pushdown-col", n)], rows[fmt.Sprintf("shards=%d col-ship", n)]
		if push.WireBytes >= ship.WireBytes {
			t.Errorf("%d shards: pushdown ships %v B, not below shipping the rows (%v B)", n, push.WireBytes, ship.WireBytes)
		}
	}
	if push4, one := rows["shards=4 pushdown-col"], rows["shards=1 pushdown-col"]; push4.MeanMS >= one.MeanMS {
		t.Errorf("4-shard pushdown %v vms does not beat the unsharded %v vms", push4.MeanMS, one.MeanMS)
	}
}

// TestWireProbeColumnsPay: at every sharded count the columnar wire ships at
// least 2.5x fewer bytes than the row protocol and is no slower on the virtual
// clock, columnar partial states ship fewer bytes than row ones, and every
// mode returns the same rows.
func TestWireProbeColumnsPay(t *testing.T) {
	rows := probeConfigs(t, "wire")
	for _, r := range rows {
		if r.Rows != rows["shards=1 row-ship"].Rows {
			t.Errorf("%s returned %d rows, %d unsharded", r.Config, r.Rows, rows["shards=1 row-ship"].Rows)
		}
	}
	for _, n := range []int{2, 4, 8} {
		key := func(mode string) ProbeRow { return rows[fmt.Sprintf("shards=%d %s", n, mode)] }
		row, col := key("row-ship"), key("col-ship")
		if ratio := row.WireBytes / col.WireBytes; ratio < 2.5 {
			t.Errorf("%d shards: columnar wire cuts bytes %.2fx (row %v B, col %v B), under 2.5x", n, ratio, row.WireBytes, col.WireBytes)
		}
		if col.MeanMS > row.MeanMS {
			t.Errorf("%d shards: col-ship %v vms slower than row-ship %v vms", n, col.MeanMS, row.MeanMS)
		}
		if push, pushCol := key("pushdown"), key("pushdown-col"); pushCol.WireBytes >= push.WireBytes {
			t.Errorf("%d shards: pushdown-col ships %v B, not below pushdown's %v B", n, pushCol.WireBytes, push.WireBytes)
		}
	}
}

// TestWeightedProbeBeatsRoundRobin: over the hotspot burst the weighted router
// beats round-robin on p99, uses at least two replicas, and no replica runs
// more than three times the fragments of the least busy one.
func TestWeightedProbeBeatsRoundRobin(t *testing.T) {
	rows := probeConfigs(t, "weighted")
	rr, wt := rows["round-robin"], rows["weighted"]
	if wt.P99MS >= rr.P99MS {
		t.Errorf("weighted p99 %v vms does not beat round-robin %v vms", wt.P99MS, rr.P99MS)
	}
	used, _, ratio := spread(wt.Executions)
	if used < 2 {
		t.Errorf("weighted routing used %d server(s); affinity must not collapse to one replica", used)
	}
	if ratio > 3 {
		t.Errorf("weighted max/min executions %v over 3: a replica idles or the balance degraded", ratio)
	}
}

// goldenProbes holds each probe's rendered rows (formatProbeRow), captured with
// `go run ./cmd/qccbench -exp probes`.
var goldenProbes = map[string]string{
	"sharded": `sharded shards=1 pushdown-col: q=1 rows=4 mean=14.00535712594697 p50=14.00535712594697 p95=14.00535712594697 p99=14.00535712594697 first=14.00535712594697 wire=80 frags=1 exec=S1:1 admitted=1 shed=0 esterr=0.031333248369677796
sharded shards=2 pushdown-col: q=1 rows=4 mean=13.538293797348485 p50=13.538293797348485 p95=13.538293797348485 p99=13.538293797348485 first=13.538293797348485 wire=171 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.005477999039376194
sharded shards=2 col-ship: q=1 rows=4 mean=14.187740411931818 p50=14.187740411931818 p95=14.187740411931818 p99=14.187740411931818 first=14.187740411931818 wire=2380 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.009358413371566315
sharded shards=4 pushdown-col: q=1 rows=4 mean=13.160650568181818 p50=13.160650568181818 p95=13.160650568181818 p99=13.160650568181818 first=13.160650568181818 wire=337 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.007381042632612518
sharded shards=4 col-ship: q=1 rows=4 mean=13.633795099431818 p50=13.633795099431818 p95=13.633795099431818 p99=13.633795099431818 first=13.633795099431818 wire=2446 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.010953460756466644
sharded shards=8 pushdown-col: q=1 rows=4 mean=12.977805516098485 p50=12.977805516098485 p95=12.977805516098485 p99=12.977805516098485 first=12.977805516098485 wire=678 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.010375486171343592
sharded shards=8 col-ship: q=1 rows=4 mean=13.336080255681818 p50=13.336080255681818 p95=13.336080255681818 p99=13.336080255681818 first=13.336080255681818 wire=2579 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.007445829297632491
`,
	"wire": `wire shards=1 row-ship: q=1 rows=4 mean=25.70820691287879 p50=25.70820691287879 p95=25.70820691287879 p99=25.70820691287879 first=25.70820691287879 wire=151 frags=1 exec=S1:1 admitted=1 shed=0 esterr=0.0184182935701412
wire shards=1 col-ship: q=1 rows=4 mean=25.67402722537879 p50=25.67402722537879 p95=25.67402722537879 p99=25.67402722537879 first=25.67402722537879 wire=81 frags=1 exec=S1:1 admitted=1 shed=0 esterr=0.017111519385983407
wire shards=1 pushdown: q=1 rows=4 mean=25.70820691287879 p50=25.70820691287879 p95=25.70820691287879 p99=25.70820691287879 first=25.70820691287879 wire=151 frags=1 exec=S1:1 admitted=1 shed=0 esterr=0.0184182935701412
wire shards=1 pushdown-col: q=1 rows=4 mean=25.67402722537879 p50=25.67402722537879 p95=25.67402722537879 p99=25.67402722537879 first=25.67402722537879 wire=81 frags=1 exec=S1:1 admitted=1 shed=0 esterr=0.017111519385983407
wire shards=2 row-ship: q=1 rows=4 mean=30.129664395506303 p50=30.129664395506303 p95=30.129664395506303 p99=30.129664395506303 first=21.55292400760135 wire=64409 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.11704332383581995
wire shards=2 col-ship: q=1 rows=4 mean=20.181910489256303 p50=20.181910489256303 p95=20.181910489256303 p99=20.181910489256303 first=19.49530682010135 wire=23466 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.3181699692286567
wire shards=2 pushdown: q=1 rows=4 mean=20.482145359848488 p50=20.482145359848488 p95=20.482145359848488 p99=20.482145359848488 first=20.482145359848488 wire=366 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.006557477039488038
wire shards=2 pushdown-col: q=1 rows=4 mean=20.435758641098488 p50=20.435758641098488 p95=20.435758641098488 p99=20.435758641098488 first=20.435758641098488 wire=176 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.008842241672558225
wire shards=4 row-ship: q=1 rows=4 mean=22.589232346233295 p50=22.589232346233295 p95=22.589232346233295 p99=22.589232346233295 first=21.294897118506494 wire=64441 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.09169010764640198
wire shards=4 col-ship: q=1 rows=4 mean=19.22589354255738 p50=19.22589354255738 p95=19.22589354255738 p99=19.22589354255738 first=19.22589354255738 wire=23530 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.06720778180426372
wire shards=4 pushdown: q=1 rows=4 mean=16.597554450757574 p50=16.597554450757574 p95=16.597554450757574 p99=16.597554450757574 first=16.597554450757574 wire=732 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.009949931584195668
wire shards=4 pushdown-col: q=1 rows=4 mean=16.551167732007574 p50=16.551167732007574 p95=16.551167732007574 p99=16.551167732007574 first=16.551167732007574 wire=351 frags=4 exec=S1:1,S2:1,S3:1,S4:1 admitted=1 shed=0 esterr=0.012780442650637224
wire shards=8 row-ship: q=1 rows=4 mean=21.132988968207027 p50=21.132988968207027 p95=21.132988968207027 p99=21.132988968207027 first=21.132988968207027 wire=64505 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.17058173135935512
wire shards=8 col-ship: q=1 rows=4 mean=19.082207718207027 p50=19.082207718207027 p95=19.082207718207027 p99=19.082207718207027 first=19.082207718207027 wire=23664 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.08144343777958477
wire shards=8 pushdown: q=1 rows=4 mean=14.658327178030303 p50=14.658327178030303 p95=14.658327178030303 p99=14.658327178030303 first=14.658327178030303 wire=1464 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.014905726516048783
wire shards=8 pushdown-col: q=1 rows=4 mean=14.611940459280303 p50=14.611940459280303 p95=14.611940459280303 p99=14.611940459280303 first=14.611940459280303 wire=701 frags=8 exec=S1:1,S2:1,S3:1,S4:1,S5:1,S6:1,S7:1,S8:1 admitted=1 shed=0 esterr=0.018127622103760694
`,
	"weighted": `weighted round-robin: q=60 rows=60 mean=26.504217344865353 p50=25.94586407261105 p95=29.306849279207054 p99=29.40039325437537 first=26.504217344865353 wire=15 frags=1 exec=S1:20,S2:20,S3:20 admitted=60 shed=0 esterr=0.11127575584141462
weighted weighted: q=60 rows=60 mean=20.064064506460184 p50=20.069427639366122 p95=24.250875011699943 p99=24.25124523427591 first=20.064064506460184 wire=15 frags=1 exec=S1:30,S2:15,S3:15 admitted=60 shed=0 esterr=0.07748928108586452
`,
	"admission": `admission interactive alone: q=4 rows=4 mean=12.251461505671074 p50=12.243277174554487 p95=12.25309279880609 p99=12.25309279880609 first=12.251461505671074 wire=20 frags=1 exec=S1:0,S2:0,S3:4 admitted=4 shed=0 esterr=0.039556133259502496
admission interactive in burst: q=4 rows=4 mean=12.251461505671074 p50=12.243277174554487 p95=12.25309279880609 p99=12.25309279880609 first=12.251461505671074 wire=20 frags=1 exec=S1:0,S2:0,S3:6 admitted=6 shed=4 esterr=0.039556133259502496
`,
	"slow_link": `slow_link scan row: q=1 rows=9913 mean=3941.794584775112 p50=3941.794584775112 p95=3941.794584775112 p99=3941.794584775112 first=157.6539597751119 wire=198276 frags=1 exec=S1:1,S2:0 admitted=1 shed=0 esterr=0.4837023686503256
slow_link scan vectorized: q=1 rows=9913 mean=3938.0612492897226 p50=3938.0612492897226 p95=3938.0612492897226 p99=3938.0612492897226 first=157.6539597751119 wire=198276 frags=1 exec=S1:1,S2:0 admitted=1 shed=0 esterr=0.4832129114920633
slow_link join: q=1 rows=5 mean=2016.7371631645428 p50=2016.7371631645428 p95=2016.7371631645428 p99=2016.7371631645428 first=112.9376143975193 wire=100821 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.020452142727628617
`,
	"join_limit": `join_limit limit: q=2 rows=25 mean=36.54524519815307 p50=33.87925457258362 p95=33.87925457258362 p99=33.87925457258362 first=28.31322722153277 wire=39847.5 frags=2 exec=S1:2,S2:2 admitted=2 shed=0 esterr=0.3948286317491948
`,
	"adversarial_from": `adversarial_from split: q=1 rows=1 mean=39.09282305691621 p50=39.09282305691621 p95=39.09282305691621 p99=39.09282305691621 first=26.39787510457334 wire=51154 frags=3 exec=S1:2,S2:1 admitted=1 shed=0 esterr=0.5773180688366406
adversarial_from adjacent: q=1 rows=1 mean=43.319996016620344 p50=43.319996016620344 p95=43.319996016620344 p99=43.319996016620344 first=31.70652557689626 wire=4489 frags=2 exec=S1:1,S2:1 admitted=1 shed=0 esterr=0.03902008081999213
`,
	"blocking_join": `blocking_join blocking: q=3 rows=19 mean=38.68452945193173 p50=43.7555151134698 p95=43.7555151134698 p99=43.7555151134698 first=31.832417554019088 wire=30272.333333333332 frags=2 exec=S1:3,S2:3 admitted=3 shed=0 esterr=0.8683951790985963
`,
	"multitenant": `multitenant equal-weights t1: q=554 rows=0 mean=2674.903444162561 p50=2633.3625193258513 p95=4913.056416374357 p99=5064.118794512851 first=0 wire=0 frags=0 exec= admitted=554 shed=0 esterr=0
multitenant equal-weights t2: q=581 rows=0 mean=2891.0896070817025 p50=2945.506703639152 p95=5426.274353005373 p99=5479.206330360629 first=0 wire=0 frags=0 exec= admitted=581 shed=0 esterr=0
multitenant equal-weights t3: q=618 rows=0 mean=3221.1079411955097 p50=3242.3618401383305 p95=5852.837295818102 p99=5912.532223017536 first=0 wire=0 frags=0 exec= admitted=618 shed=0 esterr=0
multitenant equal-weights t4: q=593 rows=0 mean=2926.3794432411814 p50=2856.626369955733 p95=5518.975593964808 p99=5615.721851894988 first=0 wire=0 frags=0 exec= admitted=593 shed=0 esterr=0
multitenant weighted-3to1 gold: q=1144 rows=0 mean=825.4092223273824 p50=779.4752966911688 p95=1553.1339373563596 p99=1635.3753987412883 first=0 wire=0 frags=0 exec= admitted=1144 shed=0 esterr=0
multitenant weighted-3to1 bronze: q=1173 rows=0 mean=4739.450051230132 p50=5644.747094769944 p95=5731.285077315429 p99=5754.731742696635 first=0 wire=0 frags=0 exec= admitted=1173 shed=0 esterr=0
multitenant isolation light: q=34 rows=0 mean=34.40682364666797 p50=34.25286541014873 p95=38.36023929157618 p99=38.36942190356376 first=0 wire=0 frags=0 exec= admitted=34 shed=0 esterr=0
multitenant isolation heavy: q=1577 rows=0 mean=1237.320633735143 p50=1541.0854662548777 p95=1689.1402450367627 p99=1707.172252897211 first=0 wire=0 frags=0 exec= admitted=999 shed=578 esterr=0
`,
}
