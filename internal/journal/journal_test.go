package journal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/simclock"
)

// TestQueryRetentionOnASmallRing: the window holds the newest entries, a
// completion finds a retained entry by its ID wherever the ring has wrapped
// to, and one for an evicted entry is counted rather than lost or misfiled.
func TestQueryRetentionOnASmallRing(t *testing.T) {
	j := newJournal(3, 3)
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, j.Begin(fmt.Sprintf("Q%d", i), simclock.Time(i), ""))
		if ids[i] != int64(i+1) {
			t.Fatalf("ID %d for submission %d: IDs must be dense from 1", ids[i], i)
		}
	}
	log := j.Queries()
	if len(log) != 3 || log[0].Query != "Q7" || log[2].Query != "Q9" {
		t.Fatalf("retained window wrong: %+v", log)
	}
	snap := j.Queries()
	for _, id := range ids {
		j.Complete(id, 100, simclock.Time(id), 0, nil)
	}
	if snap[0].Completed {
		t.Fatal("a snapshot saw a later completion")
	}
	for i, e := range j.Queries() {
		if !e.Completed || e.ID != ids[7+i] || e.ResponseTime != simclock.Time(e.ID) {
			t.Fatalf("entry %d got another query's completion: %+v", i, e)
		}
	}
	st := j.Stats()
	if st.Retained != 3 || st.Evicted != 7 || st.CompletedAfterEviction != 7 {
		t.Fatalf("stats = %+v, want 3 retained, 7 evicted, 7 late completions", st)
	}
	if _, ok := j.Record(ids[0]); ok {
		t.Fatal("Record returned an evicted query")
	}
	if _, ok := j.Record(11); ok {
		t.Fatal("Record returned a query that was never submitted")
	}
}

// TestTenantTallyBound: tallies outlive eviction, classify shed queries, and
// stop growing at the cardinality bound with the overflow counted.
func TestTenantTallyBound(t *testing.T) {
	j := newJournal(2, 2)
	shed := fmt.Errorf("wrapped: %w", admission.ErrAdmissionRejected)
	for i := 0; i < maxTenantTallies+5; i++ {
		tenant := fmt.Sprintf("t%02d", i)
		j.Complete(j.Begin("Q", 0, tenant), 10, simclock.Time(i+1), 2, nil)
		j.Complete(j.Begin("Q", 0, tenant), 10, 1, 0, shed)
		j.Complete(j.Begin("Q", 0, tenant), 10, 1, 0, errors.New("boom"))
	}
	j.Complete(j.Begin("untagged", 0, ""), 10, 1, 0, nil)
	st := j.Stats()
	if len(st.Tenants) != maxTenantTallies || st.TenantsDropped != 5*3 {
		t.Fatalf("%d tenants tallied, %d outcomes dropped; want %d and 15", len(st.Tenants), st.TenantsDropped, maxTenantTallies)
	}
	// Sorted by served cost: the last tenant under the bound served the most.
	top := st.Tenants[0]
	if top.Name != fmt.Sprintf("t%02d", maxTenantTallies-1) || top.ServedCostMS != maxTenantTallies {
		t.Fatalf("top tenant = %+v", top)
	}
	if top.Completed != 1 || top.Failed != 2 || top.Shed != 1 || top.TotalQueueWait != 2 {
		t.Fatalf("top tenant counters = %+v, want 1 completed, 2 failed of which 1 shed, wait 2", top)
	}
}

// TestRecordJoinsByID: entries of every kind come back under the ID they were
// stamped with, in the order they were added, and nobody else's.
func TestRecordJoinsByID(t *testing.T) {
	j := New()
	a, b := j.Begin("A", 1, ""), j.Begin("B", 2, "")
	for _, id := range []int64{a, b, 0, a} {
		j.Candidates.Add(Candidate{QueryID: id, ServerID: fmt.Sprint("S", id)})
		j.AddRun(Run{QueryID: id, FragID: "QF1", OutBytes: int32(id)})
	}
	j.Winners.Add(Winner{QueryID: b, Fragments: []WinnerFragment{{ID: "QF1", Server: "S2"}}})
	j.Decisions.Add(Decision{QueryID: a, Policy: "lb"})
	j.AddError(Error{QueryID: b, Err: "boom"})
	j.AddMerge(Merge{QueryID: a, CalibratedEstMS: 2, ObservedMS: 3})
	j.Complete(a, 5, 4, 0, nil)

	ra, ok := j.Record(a)
	if !ok || ra.Query.Query != "A" || !ra.Query.Completed {
		t.Fatalf("record A: %+v %v", ra.Query, ok)
	}
	if len(ra.Candidates) != 2 || len(ra.Runs) != 2 || len(ra.Decisions) != 1 || len(ra.Winners) != 0 || len(ra.Errors) != 0 ||
		len(ra.Merges) != 1 || ra.Merges[0].ObservedMS != 3 {
		t.Fatalf("record A joined the wrong entries: %+v", ra)
	}
	rb, _ := j.Record(b)
	if rb.Query.Completed || len(rb.Candidates) != 1 || len(rb.Runs) != 1 || rb.Runs[0].OutBytes != int32(b) ||
		len(rb.Winners) != 1 || rb.Winners[0].Fragments[0].Server != "S2" || len(rb.Errors) != 1 || len(rb.Merges) != 0 {
		t.Fatalf("record B joined the wrong entries: %+v", rb)
	}
	if got := len(j.Runs.Tail(0)); got != 4 {
		t.Fatalf("the run sequence holds %d entries, want all 4 (ID 0 included)", got)
	}
}

// recorder is a subscriber that writes down what it was handed, in order.
type recorder struct {
	mu   sync.Mutex
	seen []string
}

func (r *recorder) note(s string) {
	r.mu.Lock()
	r.seen = append(r.seen, s)
	r.mu.Unlock()
}

func (r *recorder) OnRun(x Run)     { r.note("run " + x.FragID) }
func (r *recorder) OnError(x Error) { r.note(fmt.Sprintf("error %d", x.Seq)) }
func (r *recorder) OnProbe(x Probe) { r.note(fmt.Sprintf("probe %d", x.Seq)) }
func (r *recorder) OnMerge(x Merge) { r.note(fmt.Sprintf("merge %v", x.ObservedMS)) }

// TestSubscriberSeesEachObservationOnce: the subscriber is handed every run,
// error, probe and merge once, in the order written, and nothing while
// unsubscribed; errors and probes carry their number among the source
// observations, so the three logs interleave back into that order.
func TestSubscriberSeesEachObservationOnce(t *testing.T) {
	j := New()
	j.AddRun(Run{FragID: "before"})
	r := &recorder{}
	j.Subscribe(r)
	j.AddRun(Run{FragID: "QF1"})
	j.AddProbe(Probe{ServerID: "S1"})
	j.AddMerge(Merge{ObservedMS: 7})
	j.AddError(Error{ServerID: "S1", Down: true})
	j.AddRun(Run{FragID: "QF2"})
	j.Candidates.Add(Candidate{}) // compile-time kinds are not handed over
	j.Subscribe(nil)
	j.AddProbe(Probe{ServerID: "S2"})

	want := []string{"run QF1", "probe 3", "merge 7", "error 4", "run QF2"}
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("subscriber saw %v, want %v", r.seen, want)
	}
	if p := j.Probes.Tail(0); len(p) != 2 || p[0].Seq != 3 || p[1].Seq != 6 {
		t.Fatalf("probe entries %+v, want numbers 3 and 6", p)
	}
	if e := j.Errors.Tail(0); len(e) != 1 || e[0].Seq != 4 || !e[0].Down {
		t.Fatalf("error entries %+v", e)
	}
	if j.Runs.Total() != 3 || j.Merges.Len() != 1 {
		t.Fatalf("runs %d, merges %d", j.Runs.Total(), j.Merges.Len())
	}
}

func TestShipModeNames(t *testing.T) {
	for _, c := range []struct {
		pushdown bool
		want     string
	}{{false, "col-ship"}, {true, "pushdown-col"}} {
		if got := ShipMode(c.pushdown).String(); got != c.want {
			t.Errorf("ShipMode(%v) = %q, want %q", c.pushdown, got, c.want)
		}
	}
}

func TestScopeRidesTheContext(t *testing.T) {
	if got := ScopeOf(context.Background()); got != (Scope{}) {
		t.Fatalf("bare context has scope %+v", got)
	}
	ctx := WithScope(context.Background(), Scope{Query: 7})
	inner := WithScope(ctx, Scope{Query: 7, Frag: "QF2", Pushdown: true})
	if ScopeOf(ctx) != (Scope{Query: 7}) || ScopeOf(inner).Frag != "QF2" || !ScopeOf(inner).Pushdown {
		t.Fatalf("scopes: %+v / %+v", ScopeOf(ctx), ScopeOf(inner))
	}
}

// TestJournalConcurrentSoak hammers every entry point from many goroutines
// over rings small enough to wrap hundreds of times: the -race target for the
// journal, and the check that a completion never lands on another query's
// entry however submissions interleave.
func TestJournalConcurrentSoak(t *testing.T) {
	j := newJournal(8, 4)
	sub := &counter{}
	j.Subscribe(sub)
	const (
		writers = 8
		perW    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := j.Begin(fmt.Sprintf("W%dQ%d", w, i), simclock.Time(i), fmt.Sprint("tenant", w))
				j.Candidates.Add(Candidate{QueryID: id})
				j.Winners.Add(Winner{QueryID: id, Fragments: []WinnerFragment{{ID: "QF1"}}})
				j.Decisions.Add(Decision{QueryID: id})
				j.AddRun(Run{QueryID: id, FragID: "QF1"})
				j.AddError(Error{QueryID: id})
				j.AddProbe(Probe{ServerID: "S1"})
				j.AddMerge(Merge{QueryID: id})
				// The response time encodes the ID: a misfiled completion shows.
				j.Complete(id, simclock.Time(i+1), simclock.Time(id), 0, nil)
				if i%16 == 0 {
					for _, e := range j.Queries() {
						if e.Completed && e.ResponseTime != simclock.Time(e.ID) {
							t.Errorf("entry %d completed with query %v's response", e.ID, e.ResponseTime)
						}
					}
					j.Stats()
					if rec, ok := j.Record(id); ok && (len(rec.Runs) > 1 || rec.Query.ID != id) {
						t.Errorf("record %d: %+v", id, rec)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := j.Stats()
	if st.Retained != 8 || st.Evicted != writers*perW-8 {
		t.Fatalf("retained %d evicted %d, want 8 and %d", st.Retained, st.Evicted, writers*perW-8)
	}
	// A completion whose entry was already evicted cannot be tallied (the
	// tenant went with the entry); every other one is, exactly once.
	n := int64(writers * perW)
	var completed int64
	for _, ts := range st.Tenants {
		completed += ts.Completed
	}
	if completed+st.CompletedAfterEviction != n {
		t.Fatalf("%d tallied + %d late completions, want %d in all", completed, st.CompletedAfterEviction, n)
	}
	for _, e := range j.Queries() {
		if e.ID <= n-8 || e.Query == "" {
			t.Fatalf("corrupt retained entry: %+v", e)
		}
	}
	if j.Runs.Len() != 8 || j.Decisions.Len() != 4 || j.Winners.Evicted() != n-8 {
		t.Fatalf("sequence bounds: runs %d decisions %d winners evicted %d", j.Runs.Len(), j.Decisions.Len(), j.Winners.Evicted())
	}
	// The subscriber saw every observation once, and the numbered kinds in
	// the order their logs hold them.
	if sub.n != 4*n || j.Errors.Total() != n || j.Probes.Total() != n {
		t.Fatalf("subscriber saw %d observations, want %d", sub.n, 4*n)
	}
	if e, p := j.Errors.Tail(0), j.Probes.Tail(0); e[len(e)-1].Seq > 3*n || p[len(p)-1].Seq > 3*n || e[0].Seq >= e[len(e)-1].Seq {
		t.Fatalf("numbering: errors %+v probes %+v", e, p)
	}
}

// counter is a subscriber that counts what it was handed and checks that the
// numbered kinds arrive in increasing order. The journal serializes delivery,
// so it needs no lock of its own.
type counter struct {
	n, lastSeq int64
}

func (c *counter) OnRun(Run)     { c.n++ }
func (c *counter) OnMerge(Merge) { c.n++ }
func (c *counter) OnError(e Error) {
	c.n++
	c.seq(e.Seq)
}
func (c *counter) OnProbe(p Probe) {
	c.n++
	c.seq(p.Seq)
}
func (c *counter) seq(s int64) {
	if s <= c.lastSeq {
		panic(fmt.Sprintf("observation %d delivered after %d", s, c.lastSeq))
	}
	c.lastSeq = s
}
