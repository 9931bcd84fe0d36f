package scenario

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sqltypes"
)

// hosts lists the servers that host every one of the named nicknames, sorted.
func hosts(t *testing.T, sc *Scenario, names ...string) string {
	t.Helper()
	count := map[string]int{}
	for _, name := range names {
		n, err := sc.Catalog.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range n.Servers() {
			count[s]++
		}
	}
	var out []string
	for s, c := range count {
		if c == len(names) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func TestBuildThreeServerWiring(t *testing.T) {
	sc, err := BuildThreeServer(Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Servers) != 3 {
		t.Fatalf("servers: %d", len(sc.Servers))
	}
	for _, id := range []string{"S1", "S2", "S3"} {
		if sc.Servers[id] == nil {
			t.Fatalf("missing %s", id)
		}
		if sc.Topo.Link(id) == nil {
			t.Fatalf("missing link %s", id)
		}
		if len(sc.Servers[id].Tables()) != 4 {
			t.Fatalf("%s tables: %v", id, sc.Servers[id].Tables())
		}
	}
	names := sc.Catalog.Names()
	if len(names) != 4 {
		t.Fatalf("nicknames: %v", names)
	}
	if got := hosts(t, sc, "orders", "lineitem", "customer", "parts"); got != "[S1 S2 S3]" {
		t.Fatalf("full replication expected: %v", got)
	}
	if len(sc.MW.Servers()) != 3 {
		t.Fatal("MW servers")
	}
	if sc.II == nil || sc.IINode == nil || sc.Clock == nil {
		t.Fatal("missing components")
	}
}

func TestBuildThreeServerReplicasIdentical(t *testing.T) {
	sc, err := BuildThreeServer(Options{Scale: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v1 := sc.Servers["S1"].Table("orders").View()
	defer v1.Close()
	v3 := sc.Servers["S3"].Table("orders").View()
	defer v3.Close()
	if v1.RowCount() != v3.RowCount() {
		t.Fatal("replica row counts differ")
	}
	r1, r3 := v1.Rows()[3], v3.Rows()[3]
	for i := range r1 {
		if sqltypes.Compare(r1[i], r3[i]) != 0 {
			t.Fatalf("replicas differ: %v vs %v", r1, r3)
		}
	}
}

func TestBuildReplicaPairPlacement(t *testing.T) {
	sc, err := BuildReplicaPair(ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Servers) != 4 {
		t.Fatalf("servers: %d", len(sc.Servers))
	}
	// orders lives on S1+R1 only.
	if got := hosts(t, sc, "orders"); got != "[R1 S1]" {
		t.Fatalf("orders hosts: %v", got)
	}
	if got := hosts(t, sc, "lineitem"); got != "[R2 S2]" {
		t.Fatalf("lineitem hosts: %v", got)
	}
	// No server hosts both sides: cross-source joins are unavoidable.
	if got := hosts(t, sc, "orders", "lineitem"); got != "[]" {
		t.Fatalf("no co-location expected: %v", got)
	}
	if sc.Servers["S1"].Table("lineitem") != nil {
		t.Fatal("S1 must not host lineitem")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.fill()
	if o.Scale != 1 || o.Seed != 42 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Latencies["S1"] != 5 || o.Latencies["S3"] != 5 {
		t.Fatalf("latency defaults: %v", o.Latencies)
	}
}
