package catalog

import (
	"strings"
	"testing"
)

func TestRegisterReplicated(t *testing.T) {
	c := New()
	err := c.RegisterReplicated("orders", schema(), []Placement{
		{ServerID: "S1", RemoteTable: "orders"},
		{ServerID: "S2", RemoteTable: "orders"},
		{ServerID: "S3", RemoteTable: "orders"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Placements) != 3 {
		t.Fatalf("placements = %d, want 3", len(n.Placements))
	}
	if n.Placements[0].Replica {
		t.Error("first placement marked Replica; it is the primary")
	}
	for i := 1; i < 3; i++ {
		if !n.Placements[i].Replica {
			t.Errorf("placement %d not marked Replica", i)
		}
	}
}

func TestRegisterReplicatedRejectsDuplicateServer(t *testing.T) {
	c := New()
	err := c.RegisterReplicated("orders", schema(), []Placement{
		{ServerID: "S1", RemoteTable: "orders"},
		{ServerID: "S1", RemoteTable: "orders_copy"},
	})
	if err == nil || !strings.Contains(err.Error(), "placed twice") {
		t.Fatalf("duplicate server accepted: err = %v", err)
	}
}
