// Columnar wire integration tests: every fragment ships typed column batches
// in the compact colbatch encoding, the run log records the encoded bytes,
// and when every shard ships the rows of the columns an aggregate reads those
// bytes are well below the row-model size of the rows shipped.
package fedqcc_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	fedqcc "repro"
	"repro/internal/exec/colbatch"
	"repro/internal/experiment"
	"repro/internal/integrator"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// shardedQuery is aggregate-heavy: each shard ships a handful of
// partial-aggregate states.
const shardedQuery = "SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag"

// colShipQuery selects the columns shardedQuery aggregates, with no
// aggregate: each shard ships them whole.
const colShipQuery = "SELECT l_tag, l_qty, l_price FROM lineitem"

// wireScale is the wire tests' scale: 250 lineitem rows.
const wireScale = 400

// queryWireBytes runs sql once and returns the result plus the bytes every
// remote fragment shipped for that query: the OutBytes of the run entries the
// journal holds under the query's ID.
func queryWireBytes(fed *fedqcc.Federation, sql string) (*fedqcc.QueryResult, int, error) {
	res, err := fed.Query(sql)
	if err != nil {
		return nil, 0, err
	}
	rec, ok := fed.QueryRecord(res.ID)
	if !ok {
		return nil, 0, fmt.Errorf("query %d has no journal record", res.ID)
	}
	bytes := 0
	for _, run := range rec.Runs {
		bytes += int(run.OutBytes)
	}
	return res, bytes, nil
}

// wireShardedFed builds a sharded federation for wire tests.
func wireShardedFed(t testing.TB, shards int) *fedqcc.Federation {
	t.Helper()
	fed, err := fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{
		Shards: shards,
		Scale:  wireScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// requireShardedGroundTruth requires res to hold the row kernels' answer to
// sql over one server holding the whole of the sharded federation's data.
func requireShardedGroundTruth(t *testing.T, sql string, res *fedqcc.QueryResult) {
	t.Helper()
	oracle, err := scenario.BuildThreeServer(scenario.Options{Scale: wireScale})
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.GroundTruth(oracle, "S1", sql)
	if err != nil {
		t.Fatal(err)
	}
	if diff := experiment.RelationsEquivalent(res.Rows, want, false); diff != "" {
		t.Fatalf("%s: %s", sql, diff)
	}
}

// spanBytes sums an integer attribute over a span tree.
func spanBytes(t *testing.T, s *telemetry.Span, attr string) int {
	t.Helper()
	total := 0
	for _, a := range s.Attrs() {
		if a.Key == attr {
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				t.Fatalf("span %s: %s=%q", s.Name(), attr, a.Value)
			}
			total += n
		}
	}
	for _, c := range s.Children() {
		total += spanBytes(t, c, attr)
	}
	return total
}

// TestWireShipsFewerBytes: when every shard ships its rows (colShipQuery) the
// columnar wire (a) returns the oracle's answers, (b) records in MW's run log
// the encoded bytes the wrapper spans report, at least 2.5x fewer than the
// row-model size of the same rows (Col.WireSize, the boxed
// Relation.ByteSize), and (c) logs "col-ship" for every fragment.
func TestWireShipsFewerBytes(t *testing.T) {
	fed := wireShardedFed(t, 4)
	if _, err := fed.Query(colShipQuery); err != nil { // warm
		t.Fatal(err)
	}
	fed.EnableTelemetry()
	res, wireBytes, err := queryWireBytes(fed, colShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireShardedGroundTruth(t, colShipQuery, res)
	root := fed.Telemetry().Tracer().Last().Root
	if spanned := spanBytes(t, root, "wire_bytes"); spanned != wireBytes {
		t.Errorf("run log records %d B, the wrapper spans %d B", wireBytes, spanned)
	}
	rowBytes := spanBytes(t, root, "wire_raw_bytes")
	if ratio := float64(rowBytes) / float64(wireBytes); ratio < 2.5 {
		t.Errorf("columnar wire shipped %d B for %d B of rows: %.2fx, under 2.5x", wireBytes, rowBytes, ratio)
	}
	t.Logf("col-ship at 4 shards: rows %d B, columnar %d B (%.2fx)",
		rowBytes, wireBytes, float64(rowBytes)/float64(wireBytes))
	if modes := shipModes(fed); !modes["col-ship"] || len(modes) != 1 {
		t.Errorf("ship modes = %v, want col-ship only", modes)
	}
}

// shipModes collects the ship mode of every fragment run the federation has
// recorded.
func shipModes(fed *fedqcc.Federation) map[string]bool {
	modes := map[string]bool{}
	for _, run := range fed.RunLog() {
		modes[run.Ship.String()] = true
	}
	return modes
}

// TestWirePushdownColumnarStates: partial-aggregate states ship as typed
// columns ("pushdown-col"), fewer bytes than shipping the rows of the columns
// they aggregate, and the ShardAggFinal merge over them returns the oracle's
// answers.
func TestWirePushdownColumnarStates(t *testing.T) {
	fed := wireShardedFed(t, 4)
	res, pushBytes, err := queryWireBytes(fed, shardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireShardedGroundTruth(t, shardedQuery, res)
	if seen := shipModes(fed); !seen["pushdown-col"] || len(seen) != 1 {
		t.Errorf("ship modes = %v, want pushdown-col only", seen)
	}
	_, shipBytes, err := queryWireBytes(wireShardedFed(t, 4), colShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if pushBytes >= shipBytes {
		t.Errorf("partial states shipped %d B, not below the rows' %d B", pushBytes, shipBytes)
	}
}

// TestWireSameAnswers: nothing on the data path decodes the wire (a batch is
// measured, its columns travel as they are), so this checks what the wire
// would deliver. Every batch the soak workload's fragments ship encodes to
// exactly the size the network was charged, and decodes back to the batch's
// rows, cell for cell and bit for bit.
func TestWireSameAnswers(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: soakScale, Seed: soakSeed})
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for i, sql := range soakStatements(16) {
		gp, err := sc.II.Compile(sql)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, sql, err)
		}
		for _, f := range gp.Fragments {
			cur, err := sc.Servers[f.ServerID].OpenPlan(context.Background(), f.Plan, integrator.DefaultBatchRows)
			if err != nil {
				t.Fatalf("query %d (%s): %v", i, sql, err)
			}
			for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
				batches++
				enc := colbatch.Encode(b.Col)
				if len(enc.Data) != b.Enc.WireBytes() {
					t.Fatalf("query %d (%s): batch charged %d B, encodes to %d", i, sql, b.Enc.WireBytes(), len(enc.Data))
				}
				dec, err := colbatch.Decode(b.Col.Schema, enc.Data)
				if err != nil {
					t.Fatalf("query %d (%s): %v", i, sql, err)
				}
				want, got := b.Col.ToRelation(), dec.ToRelation()
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("query %d (%s): %d rows shipped, %d decoded", i, sql, len(want.Rows), len(got.Rows))
				}
				for ri, row := range want.Rows {
					for ci := range row {
						if !cellsBitIdentical(row[ci], got.Rows[ri][ci]) {
							t.Fatalf("query %d (%s): cell (%d,%d) shipped %#v, decoded %#v", i, sql, ri, ci, row[ci], got.Rows[ri][ci])
						}
					}
				}
			}
		}
	}
	if batches < 16 {
		t.Fatalf("the workload shipped %d batches", batches)
	}
}
