// Columnar wire protocol integration tests: the typed column-batch wire
// format must be invisible when disabled (bit-identical charges, spans and
// virtual clock), answer-preserving when enabled, and actually cheaper on
// the wire for the sharded ship-everything workload.
package fedqcc_test

import (
	"fmt"
	"testing"

	fedqcc "repro"
)

// TestWireDisabledIdentity is the CI identity gate for this PR: with the
// vectorized engine OFF, flipping the columnar-wire flag must change nothing
// the simulation observes — the flag gates on vectorized, so the encoder
// never runs and the data path is byte-for-byte the row protocol.
func TestWireDisabledIdentity(t *testing.T) {
	sqls := soakStatements(12)
	base := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetVectorized(false)
	})
	wired := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetVectorized(false)
		fed.SetColumnarWire(true)
		if !fed.ColumnarWire() {
			t.Fatal("SetColumnarWire(true) did not take")
		}
	})
	requireVecIdentity(t, sqls, base, wired)
}

// TestWireRowProtocolUntouched pins the complement: turning only the wire
// flag off on a new (columnar-engine) federation ships exactly the row
// protocol, byte for byte what the row engine ships.
func TestWireRowProtocolUntouched(t *testing.T) {
	sqls := soakStatements(12)
	row := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetVectorized(false)
	})
	off := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetColumnarWire(false)
	})
	requireVecIdentity(t, sqls, row, off)
}

// TestWireSameAnswers: enabling the columnar wire changes what crosses the
// (simulated) network — encoded bytes instead of row-model bytes — so
// virtual times legitimately move; the ANSWERS must not. Every query of the
// soak workload must return cell-for-cell bit-identical rows.
func TestWireSameAnswers(t *testing.T) {
	sqls := soakStatements(16)
	row := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetColumnarWire(false)
	})
	wire := runVecWorkload(t, sqls, func(*fedqcc.Federation) {})
	for i := range sqls {
		r, w := row.results[i], wire.results[i]
		if len(r.Rows.Rows) != len(w.Rows.Rows) {
			t.Fatalf("query %d (%s): %d rows (row wire) vs %d (columnar wire)",
				i, sqls[i], len(r.Rows.Rows), len(w.Rows.Rows))
		}
		for ri := range r.Rows.Rows {
			for ci := range r.Rows.Rows[ri] {
				if !cellsBitIdentical(r.Rows.Rows[ri][ci], w.Rows.Rows[ri][ci]) {
					t.Fatalf("query %d (%s): cell (%d,%d) diverged: %#v vs %#v",
						i, sqls[i], ri, ci, r.Rows.Rows[ri][ci], w.Rows.Rows[ri][ci])
				}
			}
		}
	}
}

// shardedQuery is aggregate-heavy: with pushdown each shard ships a handful of
// partial-aggregate states, without it the columns the aggregation reads.
const shardedQuery = "SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag"

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

// wireShardedFed builds a vectorized sharded federation for wire tests
// (scale 400: 2 000 lineitem rows).
func wireShardedFed(t testing.TB, shards int, pushdown, wire bool) *fedqcc.Federation {
	t.Helper()
	fed, err := fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{
		Shards: shards,
		Scale:  400,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.SetShardPushdown(pushdown)
	fed.SetColumnarWire(wire)
	return fed
}

// TestWireShipsFewerBytes: on the sharded ship-everything workload the
// columnar wire must (a) return the same answers, (b) record strictly fewer
// bytes in MW's run log, and (c) log "col-ship" decisions where the row
// protocol logs "row-ship".
func TestWireShipsFewerBytes(t *testing.T) {
	rowFed := wireShardedFed(t, 4, false, false)
	wireFed := wireShardedFed(t, 4, false, true)
	for _, warm := range []*fedqcc.Federation{rowFed, wireFed} {
		if _, err := warm.Query(shardedQuery); err != nil {
			t.Fatal(err)
		}
	}
	rowRes, rowBytes, err := queryWireBytes(rowFed, shardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	wireRes, wireBytes, err := queryWireBytes(wireFed, shardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowRes.Rows.Rows) != len(wireRes.Rows.Rows) {
		t.Fatalf("row wire returned %d rows, columnar wire %d", len(rowRes.Rows.Rows), len(wireRes.Rows.Rows))
	}
	for ri := range rowRes.Rows.Rows {
		for ci := range rowRes.Rows.Rows[ri] {
			if !cellsBitIdentical(rowRes.Rows.Rows[ri][ci], wireRes.Rows.Rows[ri][ci]) {
				t.Fatalf("cell (%d,%d) diverged: %#v vs %#v",
					ri, ci, rowRes.Rows.Rows[ri][ci], wireRes.Rows.Rows[ri][ci])
			}
		}
	}
	if wireBytes >= rowBytes {
		t.Errorf("columnar wire shipped %d B, row protocol %d B: no reduction", wireBytes, rowBytes)
	}
	t.Logf("ship-everything at 4 shards: row %d B, columnar %d B (%.2fx)",
		rowBytes, wireBytes, float64(rowBytes)/float64(wireBytes))

	if modes := shipModes(rowFed); !modes["row-ship"] || len(modes) != 1 {
		t.Errorf("row federation ship modes = %v, want row-ship only", modes)
	}
	if modes := shipModes(wireFed); !modes["col-ship"] || len(modes) != 1 {
		t.Errorf("wire federation ship modes = %v, want col-ship only", modes)
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

// TestWirePushdownColumnarStates: with pushdown AND the columnar wire on,
// partial-aggregate states ship as typed columns ("pushdown-col"), the
// ShardAggFinal merge runs vectorized, and the final answers match the
// row-protocol pushdown run bit for bit.
func TestWirePushdownColumnarStates(t *testing.T) {
	rowFed := wireShardedFed(t, 4, true, false)
	wireFed := wireShardedFed(t, 4, true, true)
	rowRes, err := rowFed.Query(shardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	wireRes, err := wireFed.Query(shardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowRes.Rows.Rows) != len(wireRes.Rows.Rows) {
		t.Fatalf("pushdown returned %d rows, pushdown-col %d", len(rowRes.Rows.Rows), len(wireRes.Rows.Rows))
	}
	for ri := range rowRes.Rows.Rows {
		for ci := range rowRes.Rows.Rows[ri] {
			if !cellsBitIdentical(rowRes.Rows.Rows[ri][ci], wireRes.Rows.Rows[ri][ci]) {
				t.Fatalf("cell (%d,%d) diverged: %#v vs %#v",
					ri, ci, rowRes.Rows.Rows[ri][ci], wireRes.Rows.Rows[ri][ci])
			}
		}
	}
	if seen := shipModes(wireFed); !seen["pushdown-col"] || len(seen) != 1 {
		t.Errorf("ship modes = %v, want pushdown-col only", seen)
	}
	if seen := shipModes(rowFed); !seen["pushdown"] || len(seen) != 1 {
		t.Errorf("row-protocol ship modes = %v, want pushdown only", seen)
	}
}
