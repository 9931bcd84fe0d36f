package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// contents renders what an update could change in a table: its version, every
// stored column's address, every row's values and every index's contents, the
// sorted order and each key's hash list.
func contents(tab *storage.Table) string {
	v := tab.View()
	defer v.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", v.Version())
	for _, col := range v.Columns() {
		fmt.Fprintf(&b, "%p\n", col)
	}
	for _, row := range v.Rows() {
		fmt.Fprintf(&b, "%v\n", row)
	}
	for _, ix := range v.Indexes() {
		iv, err := v.Index(ix)
		if err != nil {
			panic(err)
		}
		col, err := tab.Schema().ColumnIndex("", ix.Column())
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%s range %v\n", ix.Name(), iv.LookupRange(nil, nil, true, true))
		for _, row := range v.Rows() {
			fmt.Fprintf(&b, "%v", iv.LookupEq(row[col]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// A table is generated once per study: every replica in a federation and
// every federation of a ThreeServerFederations function holds a copy. Before
// any update the copies share every stored column (sharing, not a deep copy);
// an update burst on one copy, indexed columns included, leaves every other
// copy's columns, rows, version and index contents as they were while readers
// scan them (run it under -race); and a federation assembled afterwards is
// still the one BuildThreeServer builds.
func TestReplicaCopiesAreIndependent(t *testing.T) {
	opts := Options{Scale: 100, Seed: 7}
	build := ThreeServerFederations(opts)
	var copies []*storage.Table
	for range 2 {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range serverIDs(3) {
			copies = append(copies, sc.Servers[id].Table("orders"))
		}
	}
	origin := copies[0].View()
	for _, tab := range copies[1:] {
		v := tab.View()
		for i, col := range v.Columns() {
			if col != origin.Columns()[i] {
				t.Fatalf("column %d of a copy is not the generated column", i)
			}
		}
		v.Close()
	}
	origin.Close()

	before := make([]string, len(copies))
	for i, tab := range copies {
		before[i] = contents(tab)
	}
	// The first federation's S1 holds the origin the other replicas were
	// copied from; a federation assembled after the burst must not see it.
	const updated = 0
	target := copies[updated]
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i, tab := range copies {
		if i == updated {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					contents(tab)
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		// o_id (sorted index), o_custkey (hash index), o_amount (none).
		col := i % 3
		v := sqltypes.NewInt(r.Int63n(50))
		if col == 2 {
			v = sqltypes.NewFloat(r.Float64())
		}
		if err := target.UpdateAt(r.Intn(1000), col, v); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	for i, tab := range copies {
		if got := contents(tab); i == updated && got == before[i] {
			t.Fatal("the updated copy did not change")
		} else if i != updated && got != before[i] {
			t.Fatalf("copy %d changed when copy %d was updated", i, updated)
		}
	}
	after, err := build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildThreeServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if describe(after) != describe(fresh) {
		t.Fatal("a federation assembled after the update differs from BuildThreeServer's")
	}
}

// BenchmarkBuildFederation times assembling the canned federations at Scale 4
// (25 000-row large tables), the size of the sharded benchmark workload.
func BenchmarkBuildFederation(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*Scenario, error)
	}{
		{"three-server", func() (*Scenario, error) { return BuildThreeServer(Options{Scale: 4}) }},
		{"replica-pair", func() (*Scenario, error) { return BuildReplicaPair(ReplicaOptions{Scale: 4}) }},
		{"sharded-4", func() (*Scenario, error) { return BuildSharded(ShardedOptions{Shards: 4, Scale: 4}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
