package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// wireQuery is the sharded ship-everything workload: with pushdown off,
// every shard ships its full slice of lineitem to the integrator, so the
// bytes on the wire are exactly what the columnar protocol compresses; with
// pushdown on, the shards ship partial-aggregate states instead.
const wireQuery = "SELECT l_tag, COUNT(*), SUM(l_qty), AVG(l_price) FROM lineitem GROUP BY l_tag"

// wireTrials is the wall-time trial count per configuration. Trials are
// interleaved round-robin across the four modes of one shard count so GC
// and scheduler drift hit every mode alike; each mode reports its minimum.
const wireTrials = 8

// WireOutcome is one (shard count, ship mode) measurement of the columnar
// wire study. JSON tags match the BENCH_wire.json schema.
type WireOutcome struct {
	// Shards is the shard (and server) count.
	Shards int `json:"shards"`
	// Mode is the data-shipping mode: row-ship | col-ship | pushdown |
	// pushdown-col — the same vocabulary the fragment spans and the routing
	// decision log use.
	Mode string `json:"mode"`
	// RespMS is the virtual end-user response time (deterministic).
	RespMS float64 `json:"response_virtual_ms"`
	// WireBytes is what all remote fragments shipped for one steady-state
	// execution, from the meta-wrapper run log (deterministic).
	WireBytes int `json:"wire_bytes"`
	// WallNS is the minimum real execution time over the interleaved trials.
	WallNS int64 `json:"wall_ns"`
	// Rows is the final result cardinality (must agree across modes).
	Rows int `json:"rows"`
}

// WireStudyResult is the full grid emitted to BENCH_wire.json.
type WireStudyResult struct {
	Query    string        `json:"query"`
	Scale    int           `json:"scale"`
	Trials   int           `json:"wall_trials"`
	Outcomes []WireOutcome `json:"configs"`
}

// wireModes orders the measured flag pairs (pushdown, columnar wire).
var wireModes = [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}

// WireModeName maps a (pushdown, columnar wire) flag pair to the ship-mode
// vocabulary shared with fragment spans and the routing decision log.
func WireModeName(pushdown, wire bool) string {
	switch {
	case pushdown && wire:
		return "pushdown-col"
	case pushdown:
		return "pushdown"
	case wire:
		return "col-ship"
	default:
		return "row-ship"
	}
}

// WireStudy measures the typed columnar wire protocol against row shipping:
// the sharded aggregate workload at 1/2/4/8 shards, in all four ship modes.
// Wire bytes and virtual response times are deterministic; wall time is the
// minimum over interleaved trials.
func WireStudy(opts Options) (WireStudyResult, error) {
	opts.fill()
	out := WireStudyResult{Query: wireQuery, Scale: opts.Scale, Trials: wireTrials}
	for _, shards := range []int{1, 2, 4, 8} {
		outcomes, err := wireStudyShards(opts, shards)
		if err != nil {
			return out, fmt.Errorf("wire study shards=%d: %w", shards, err)
		}
		out.Outcomes = append(out.Outcomes, outcomes...)
	}
	return out, nil
}

// wireStudyShards builds one sharded federation per ship mode at
// the given shard count, measures the deterministic quantities once each,
// then times wall clock with the trials interleaved across modes.
func wireStudyShards(opts Options, shards int) ([]WireOutcome, error) {
	scs := make([]*scenario.Scenario, len(wireModes))
	outcomes := make([]WireOutcome, len(wireModes))
	for i, flags := range wireModes {
		sc, err := scenario.BuildSharded(scenario.ShardedOptions{
			Shards: shards,
			Scale:  opts.Scale,
			Seed:   opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, srv := range sc.Servers {
			srv.SetColumnarWire(flags[1])
		}
		sc.II.SetShardPushdown(flags[0])
		// Warm the compile caches, then measure the steady-state execution.
		if _, err := sc.II.Query(wireQuery); err != nil {
			return nil, err
		}
		res, err := sc.II.Query(wireQuery)
		if err != nil {
			return nil, err
		}
		rec, _ := sc.II.Journal().Record(res.ID)
		bytes := 0
		for _, e := range rec.Runs {
			bytes += e.OutBytes
		}
		scs[i] = sc
		outcomes[i] = WireOutcome{
			Shards:    shards,
			Mode:      WireModeName(flags[0], flags[1]),
			RespMS:    float64(res.ResponseTime),
			WireBytes: bytes,
			Rows:      len(res.Rel.Rows),
		}
	}
	runtime.GC() // collect datagen litter once, not mid-trial
	walls := make([]time.Duration, len(scs))
	for trial := 0; trial < wireTrials; trial++ {
		for i, sc := range scs {
			start := time.Now()
			if _, err := sc.II.Query(wireQuery); err != nil {
				return nil, err
			}
			if d := time.Since(start); trial == 0 || d < walls[i] {
				walls[i] = d
			}
		}
	}
	for i := range outcomes {
		outcomes[i].WallNS = walls[i].Nanoseconds()
	}
	return outcomes, nil
}

// WriteWireStudy merges the study under the "wire" key of the given JSON
// file (other keys, if the file exists, are preserved).
func WriteWireStudy(result WireStudyResult, path string) error {
	doc := map[string]json.RawMessage{}
	if buf, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(buf, &doc)
	}
	enc, err := json.Marshal(result)
	if err != nil {
		return err
	}
	doc["wire"] = enc
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// FormatWireStudy renders the wire grid with the row-ship/col-ship byte
// reduction per sharded count.
func FormatWireStudy(result WireStudyResult) string {
	out := "Columnar wire study — typed column batches vs boxed rows on the wire\n"
	out += fmt.Sprintf("  %s (scale %d)\n", result.Query, result.Scale)
	out += "  shards  mode           wire(B)  resp(vms)  wall(ms)  vs row-ship\n"
	rowBytes := map[int]int{}
	for _, o := range result.Outcomes {
		if o.Mode == "row-ship" {
			rowBytes[o.Shards] = o.WireBytes
		}
	}
	for _, o := range result.Outcomes {
		note := ""
		if o.Mode == "col-ship" && o.WireBytes > 0 {
			note = fmt.Sprintf("%10.2fx", float64(rowBytes[o.Shards])/float64(o.WireBytes))
		}
		out += fmt.Sprintf("  %6d  %-12s %9d %10.1f %9.3f %s\n",
			o.Shards, o.Mode, o.WireBytes, o.RespMS, float64(o.WallNS)/1e6, note)
	}
	return out
}
