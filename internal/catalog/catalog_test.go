package catalog

import (
	"testing"

	"repro/internal/sqltypes"
)

func schema() *sqltypes.Schema {
	return sqltypes.NewSchema(sqltypes.Column{Name: "id", Type: sqltypes.KindInt})
}

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Register(&Nickname{
		Name: "orders", Schema: schema(),
		Placements: []Placement{{ServerID: "S1", RemoteTable: "orders"}, {ServerID: "S3", RemoteTable: "orders", Replica: true}},
	}))
	must(c.Register(&Nickname{
		Name: "parts", Schema: schema(),
		Placements: []Placement{{ServerID: "S2", RemoteTable: "parts"}, {ServerID: "S3", RemoteTable: "parts", Replica: true}},
	}))
	return c
}

func TestRegisterValidation(t *testing.T) {
	c := New()
	if err := c.Register(&Nickname{Schema: schema(), Placements: []Placement{{ServerID: "S1"}}}); err == nil {
		t.Fatal("missing name")
	}
	if err := c.Register(&Nickname{Name: "x", Placements: []Placement{{ServerID: "S1"}}}); err == nil {
		t.Fatal("missing schema")
	}
	if err := c.Register(&Nickname{Name: "x", Schema: schema()}); err == nil {
		t.Fatal("missing placements")
	}
}

func TestLookupAndNames(t *testing.T) {
	c := testCatalog(t)
	n, err := c.Lookup("orders")
	if err != nil || n.Name != "orders" {
		t.Fatalf("lookup: %v %v", n, err)
	}
	if _, err := c.Lookup("zzz"); err == nil {
		t.Fatal("unknown nickname")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "orders" || names[1] != "parts" {
		t.Fatalf("names: %v", names)
	}
}

func TestAddPlacement(t *testing.T) {
	c := testCatalog(t)
	if err := c.AddPlacement("orders", Placement{ServerID: "S2", RemoteTable: "orders", Replica: true}); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Lookup("orders")
	if got := n.Servers(); len(got) != 3 { // now S1, S2 and S3
		t.Fatalf("after replica: %v", got)
	}
	if err := c.AddPlacement("orders", Placement{ServerID: "S2"}); err == nil {
		t.Fatal("duplicate placement")
	}
	if err := c.AddPlacement("ghost", Placement{ServerID: "S2"}); err == nil {
		t.Fatal("unknown nickname")
	}
}

func TestNicknameHelpers(t *testing.T) {
	c := testCatalog(t)
	n, _ := c.Lookup("orders")
	if p := n.PlacementOn("S3"); p == nil || !p.Replica {
		t.Fatalf("placement on S3: %+v", p)
	}
	if n.PlacementOn("S9") != nil {
		t.Fatal("ghost placement")
	}
	servers := n.Servers()
	if len(servers) != 2 || servers[0] != "S1" {
		t.Fatalf("servers: %v", servers)
	}
}
