// Columnar wire protocol benchmark: the sharded ship-everything query with
// row shipping vs typed column-batch shipping at 1/2/4/8 shards, plus the
// pushdown pair (partial-aggregate states as rows vs typed columns). Runs
// the same study as `qccbench -exp wire`, emits the "wire" key of
// BENCH_wire.json (bytes-on-wire, virtual response time, min-of-trials wall
// time per configuration) and backs the WIRE_CHECK=1 CI gate (see
// TestWireSmoke): columnar shipping must cut wire bytes by >= 2.5x and never
// lose on virtual response time against row shipping.
package fedqcc_test

import (
	"testing"

	fedqcc "repro"
)

const wireBenchFile = "BENCH_wire.json"

// wireBenchScale is deliberately finer than shardedBenchScale (Scale divides
// the paper's table sizes): the wall-time comparison needs per-row costs
// (boxing vs encoding) to dominate fixed per-query overhead, and
// sub-millisecond runs drown in scheduler noise.
const wireBenchScale = 40 // 100000/40 = 2500 lineitem rows (the comment used to say 20000)

// wireByteFloor is the CI floor on the row-ship/col-ship wire byte ratio at
// every sharded count. The ship-everything fragment selects the three columns
// the aggregation reads (l_qty, l_price, l_tag; the ids and keys that delta
// and varint coding shrank most are no longer shipped at all), which encode to
// 9.4 B/row — a one-byte varint, an incompressible 8-byte float, a 2-bit
// dictionary index — against 25.8 B/row under the row model: 2.74x at 2 and 4
// shards, 2.73x at 8 (row 64 409 B, col 23 466 B at 2 shards, over the 2 500
// lineitem rows of wireBenchScale — ISSUE.md's "at 20 000 rows" repeats the old
// comment, the bytes are these). The floor sits
// 9% under the measurement. Both sides are exact byte counts, so it cannot
// flake; it fails when an encoding stops being chosen.
const wireByteFloor = 2.5

// measureWireStudy runs the shared experiment study at the bench scale.
func measureWireStudy(fatalf func(format string, args ...any)) fedqcc.WireStudyResult {
	result, err := fedqcc.RunWireStudy(fedqcc.ExperimentOptions{Scale: wireBenchScale})
	if err != nil {
		fatalf("wire study: %v", err)
	}
	return result
}

// wireConfigsByKey indexes a study by (mode, shards).
func wireConfigsByKey(result fedqcc.WireStudyResult) map[string]fedqcc.WireOutcome {
	byKey := map[string]fedqcc.WireOutcome{}
	for _, cfg := range result.Outcomes {
		byKey[cfg.Mode+string(rune('0'+cfg.Shards))] = cfg
	}
	return byKey
}

// requireWireFloors enforces the WIRE_CHECK gate on a measured study:
// columnar shipping must cut wire bytes by >= wireByteFloor at every sharded
// count, never lose on (deterministic) virtual response time, ship fewer
// partial-aggregate bytes than row-model pushdown, and return the same row
// counts everywhere. Wall times are logged, not compared: on a shared box the
// sub-millisecond totals differ by less than their own noise.
func requireWireFloors(t *testing.T, result fedqcc.WireStudyResult) {
	t.Helper()
	byKey := wireConfigsByKey(result)
	for _, cfg := range result.Outcomes {
		t.Logf("shards=%d mode=%-12s response=%6.1f vms  wire=%7d B  wall=%8.3f ms",
			cfg.Shards, cfg.Mode, cfg.RespMS, cfg.WireBytes,
			float64(cfg.WallNS)/1e6)
		if want := result.Outcomes[0].Rows; cfg.Rows != want {
			t.Errorf("shards=%d mode=%s returned %d rows, want %d", cfg.Shards, cfg.Mode, cfg.Rows, want)
		}
	}
	for _, shards := range []int{2, 4, 8} {
		k := string(rune('0' + shards))
		row, col := byKey["row-ship"+k], byKey["col-ship"+k]
		if ratio := float64(row.WireBytes) / float64(col.WireBytes); ratio < wireByteFloor {
			t.Errorf("shards=%d: columnar wire ratio %.2fx below the %.1fx floor (row %d B, col %d B)",
				shards, ratio, wireByteFloor, row.WireBytes, col.WireBytes)
		}
		if col.RespMS > row.RespMS {
			t.Errorf("shards=%d: col-ship virtual response %.2f vms worse than row-ship %.2f vms",
				shards, col.RespMS, row.RespMS)
		}
		push, pushCol := byKey["pushdown"+k], byKey["pushdown-col"+k]
		if pushCol.WireBytes >= push.WireBytes {
			t.Errorf("shards=%d: pushdown-col ships %d B, not below row-model pushdown %d B",
				shards, pushCol.WireBytes, push.WireBytes)
		}
	}
}

func writeWireBenchFile(result fedqcc.WireStudyResult) error {
	return fedqcc.WriteWireStudy(result, wireBenchFile)
}

// BenchmarkWireProtocol measures the full wire grid once per run and
// persists it to BENCH_wire.json. As with BenchmarkShardedScaleOut, the
// headline metrics are virtual (wire bytes) or min-of-trials wall times
// measured outside the b.N loop; the loop keeps -benchtime=1x CI runs happy.
func BenchmarkWireProtocol(b *testing.B) {
	result := measureWireStudy(b.Fatalf)
	byKey := wireConfigsByKey(result)
	for _, cfg := range result.Outcomes {
		b.Logf("shards=%d mode=%-12s response=%6.1f vms  wire=%7d B  wall=%8.3f ms",
			cfg.Shards, cfg.Mode, cfg.RespMS, cfg.WireBytes,
			float64(cfg.WallNS)/1e6)
	}
	row4, col4 := byKey["row-ship4"], byKey["col-ship4"]
	b.ReportMetric(float64(row4.WireBytes)/float64(col4.WireBytes), "wire_reduction4_x")
	b.ReportMetric(float64(row4.WallNS)/float64(col4.WallNS), "wall_speedup4_x")
	if err := writeWireBenchFile(result); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s (wire)", wireBenchFile)
	for i := 0; i < b.N; i++ {
	}
}
