package fedqcc_test

import (
	"math"
	"testing"

	fedqcc "repro"
)

// slowLinkFederation builds a single-server federation over a
// bandwidth-limited link, where batch arrivals spread far enough
// apart to tell first row from response. Scale 10 gives 10k-row large tables.
func slowLinkFederation(t testing.TB) *fedqcc.Federation {
	t.Helper()
	b := fedqcc.NewBuilder(7).
		AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{LatencyMS: 20, BandwidthKBps: 50})
	for _, spec := range fedqcc.StandardSchema(10) {
		b.AddGeneratedTable("S1", spec)
	}
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestStreamingFirstRowBeforeResponse checks what the fragment streaming data
// path gives a federated query: across scan, join, aggregate and order-by
// shapes the first row is never later than the response, and on a >=10k-row
// scan over the slow link it falls strictly inside it. (That streaming beats
// store-and-forward is pinned in package metawrapper, which can open the same
// stream at batchRows 0.)
func TestStreamingFirstRowBeforeResponse(t *testing.T) {
	queries := []string{
		"SELECT l.l_orderkey, l.l_price FROM lineitem AS l",                                     // large scan
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey", // join
		"SELECT l.l_orderkey, SUM(l.l_price) FROM lineitem AS l GROUP BY l.l_orderkey",          // aggregate
		"SELECT l.l_orderkey FROM lineitem AS l ORDER BY l.l_price DESC",                        // order-by
	}
	fed := slowLinkFederation(t)
	for i, sql := range queries {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.FirstRowTime > res.ResponseTime {
			t.Fatalf("%s: first row (%v) after response (%v)", sql, res.FirstRowTime, res.ResponseTime)
		}
		if i == 0 {
			if len(res.Rows.Rows) < 10000 {
				t.Fatalf("scenario needs >=10k rows, got %d", len(res.Rows.Rows))
			}
			if res.FirstRowTime <= 0 || res.FirstRowTime >= res.ResponseTime {
				t.Fatalf("time-to-first-row %v must fall strictly inside (0, %v)", res.FirstRowTime, res.ResponseTime)
			}
		}
	}
}

// TestStreamingBatchSpansSumToFragmentTime checks the trace-level acceptance
// invariant: on a multi-batch streamed fragment the wrapper.execute span's
// children (network.send, remote.exec, one network.recv per batch) sum
// EXACTLY to the fragment's response time, and the streaming-only metric
// series appear.
func TestStreamingBatchSpansSumToFragmentTime(t *testing.T) {
	fed := slowLinkFederation(t)
	tel := fed.EnableTelemetry()

	res, err := fed.Query("SELECT l.l_orderkey, l.l_price FROM lineitem AS l")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstRowTime <= 0 {
		t.Fatalf("first-row time: %v", res.FirstRowTime)
	}

	tr := tel.Tracer().Last()
	if tr == nil || !tr.Done() || tr.Err() != "" {
		t.Fatalf("trace incomplete: %+v", tr)
	}
	type wexecSum struct {
		dur      float64
		children float64
		recvs    int
	}
	var wexec *wexecSum
	for _, c := range tr.Root.Children() {
		if c.Name() != "fragment" {
			continue
		}
		for _, cc := range c.Children() {
			if cc.Name() != "wrapper.execute" {
				continue
			}
			w := &wexecSum{dur: float64(cc.Dur())}
			for _, b := range cc.Children() {
				w.children += float64(b.Dur())
				if b.Name() == "network.recv" {
					w.recvs++
				}
			}
			wexec = w
		}
	}
	if wexec == nil {
		t.Fatalf("no wrapper.execute span in trace:\n%s", tr.Tree())
	}
	if wexec.recvs < 2 {
		t.Fatalf("10k-row scan must stream multiple batches, saw %d recv spans:\n%s", wexec.recvs, tr.Tree())
	}
	if math.Abs(wexec.children-wexec.dur) > 1e-6 {
		t.Fatalf("per-batch spans sum to %.9f, fragment response %.9f", wexec.children, wexec.dur)
	}

	if h := tel.Metrics().HistogramOf("query.first_row_ms", ""); h == nil || h.Count() < 1 {
		t.Fatal("query.first_row_ms must record on streamed queries")
	}
	if h := tel.Metrics().HistogramOf("network.batch_bytes", "S1"); h == nil || h.Count() < 2 {
		t.Fatal("network.batch_bytes must record one sample per streamed batch")
	}
}
