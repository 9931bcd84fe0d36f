package scenario

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// describe renders everything about an assembled federation that the
// construction code decides: servers and their hardware, links, every table
// (name, rows, row bytes, a content hash, indexes) and every catalog
// registration with its Replica flags and shard map.
func describe(sc *Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ii %+v\n", sc.IINode.Config())
	ids := make([]string, 0, len(sc.Servers))
	for id := range sc.Servers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		srv := sc.Servers[id]
		link := sc.Topo.Link(id)
		fmt.Fprintf(&b, "server %s %+v link lat=%v mib=%v\n", id, srv.Config(), link.BaseLatency(), link.StaticTransferTime(1<<20))
		for _, name := range srv.Tables() {
			tab := srv.Table(name)
			v := tab.View()
			bytes, content := 0, fnv.New64a()
			for _, row := range v.Rows() {
				bytes += row.ByteSize()
				for _, v := range row {
					fmt.Fprintf(content, "%s|", v)
				}
			}
			fmt.Fprintf(&b, "  table %s rows=%d bytes=%d content=%x schema=%v\n", name, v.RowCount(), bytes, content.Sum64(), tab.Schema())
			for _, ix := range v.Indexes() {
				fmt.Fprintf(&b, "    index %s on %s kind=%v\n", ix.Name(), ix.Column(), ix.Kind())
			}
			v.Close()
		}
	}
	for _, name := range sc.Catalog.Names() {
		n, _ := sc.Catalog.Lookup(name)
		fmt.Fprintf(&b, "nickname %s schema=%v placements=%+v\n", n.Name, n.Schema, n.Placements)
		if n.Sharding != nil {
			fmt.Fprintf(&b, "  sharding column=%s method=%v bounds=%v\n", n.Sharding.Column, n.Sharding.Method, n.Sharding.Bounds)
		}
		for _, sh := range n.Shards {
			fmt.Fprintf(&b, "  shard %d %+v\n", sh.Index, sh.Placements)
		}
	}
	return b.String()
}

// TestAssembledFederationsFingerprint pins the canned scenarios' construction.
// The literals were captured on the commit before the five hand-written
// builders became one assembler; a change that moves one means federations no
// longer come out the way the benchmark's exact virtual counts assume.
func TestAssembledFederationsFingerprint(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Scenario, error)
		want  string
	}{
		{"three", func() (*Scenario, error) { return BuildThreeServer(Options{Scale: 100, Seed: 7}) }, "930295871b6b248e"},
		{"three-exclusive", func() (*Scenario, error) {
			return BuildThreeServer(Options{Scale: 100, Seed: 7, Exclusive: map[string]string{"lineitem": "S3", "parts": "S1"}})
		}, "9708c92932ff45f1"},
		{"three-uniform", func() (*Scenario, error) { return BuildThreeServer(Options{Scale: 100, Seed: 7, Uniform: true}) }, "71f8685367d867fa"},
		{"three-latencies", func() (*Scenario, error) {
			return BuildThreeServer(Options{Scale: 100, Seed: 7, Latencies: map[string]float64{"S1": 2, "S2": 40, "S3": 9}})
		}, "9d515281f4ce434f"},
		{"replica-pair", func() (*Scenario, error) { return BuildReplicaPair(ReplicaOptions{Scale: 100, Seed: 7}) }, "192da5dac4885716"},
		{"replicated", func() (*Scenario, error) { return BuildReplicated(ReplicatedOptions{Scale: 100, Seed: 7}) }, "25ce24ec2b3dce96"},
		{"replicated-5", func() (*Scenario, error) { return BuildReplicated(ReplicatedOptions{Servers: 5, Scale: 100, Seed: 7}) }, "f7815141e86d6f86"},
		{"sharded-1-hash", func() (*Scenario, error) { return BuildSharded(ShardedOptions{Shards: 1, Scale: 100, Seed: 7}) }, "39db2db82047c8c6"},
		{"sharded-4-hash", func() (*Scenario, error) { return BuildSharded(ShardedOptions{Shards: 4, Scale: 100, Seed: 7}) }, "02f6c0c161933865"},
		{"sharded-1-range", func() (*Scenario, error) {
			return BuildSharded(ShardedOptions{Shards: 1, Scale: 100, Seed: 7, Method: catalog.ShardRange})
		}, "39db2db82047c8c6"},
		{"sharded-4-range", func() (*Scenario, error) {
			return BuildSharded(ShardedOptions{Shards: 4, Scale: 100, Seed: 7, Method: catalog.ShardRange})
		}, "615bf6bcf486b5bd"},
		{"sharded-4-nullkeys", func() (*Scenario, error) {
			return BuildSharded(ShardedOptions{Shards: 4, Scale: 100, Seed: 7, NullKeyFrac: 0.1})
		}, "496e25d982c09ce8"},
	}
	for _, tc := range cases {
		sc, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		text := describe(sc)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]; got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s\n%s", tc.name, got, tc.want, text)
		}
	}
}
