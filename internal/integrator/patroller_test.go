package integrator

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/ring"
	"repro/internal/simclock"
)

// The query patroller's log (§1) is the journal's query entries, which
// II.QueryContext opens and closes. These cases drive the two entry points
// directly, at the journal's real bound; the journal's own tests cover small
// rings, the soak and the ID join.

func TestPatrollerSubmitComplete(t *testing.T) {
	p := journal.New()
	id1 := p.Begin("Q1", 10, "")
	id2 := p.Begin("Q2", 20, "")
	if id1 == id2 {
		t.Fatal("ids must be unique")
	}
	p.Complete(id1, 35, 25, 0, nil)
	p.Complete(id2, 50, 30, 0, errors.New("boom"))
	log := p.Queries()
	if len(log) != 2 || p.Stats().Retained != 2 {
		t.Fatalf("log size: %d", len(log))
	}
	e1, e2 := log[0], log[1]
	if e1.Query != "Q1" || !e1.Completed || e1.Err != "" {
		t.Fatalf("e1: %+v", e1)
	}
	if e1.ResponseTime != 25 || e1.CompleteAt != 35 {
		t.Fatalf("e1 timing: %+v", e1)
	}
	if e2.Err != "boom" || e2.ResponseTime != 30 {
		t.Fatalf("e2: %+v", e2)
	}
}

func TestPatrollerUnknownCompleteIsNoop(t *testing.T) {
	p := journal.New()
	p.Complete(999, 5, 5, 0, nil)
	if p.Stats().Retained != 0 {
		t.Fatal("ghost completion must not create entries")
	}
}

func TestPatrollerIncompleteEntries(t *testing.T) {
	p := journal.New()
	p.Begin("Q", 1, "")
	log := p.Queries()
	if log[0].Completed || log[0].ResponseTime != 0 {
		t.Fatalf("incomplete entry: %+v", log[0])
	}
}

func TestPatrollerLogIsSnapshot(t *testing.T) {
	p := journal.New()
	id := p.Begin("Q", 1, "")
	snap := p.Queries()
	p.Complete(id, 9, 8, 0, nil)
	if snap[0].Completed {
		t.Fatal("snapshot must not see later completion")
	}
}

func TestPatrollerRetentionBound(t *testing.T) {
	p := journal.New()
	const n = ring.Entries + 7
	var ids []int64
	for i := 0; i < n; i++ {
		ids = append(ids, p.Begin(fmt.Sprintf("Q%d", i), simclock.Time(i), ""))
	}
	st := p.Stats()
	if st.Retained != ring.Entries || st.Evicted != 7 {
		t.Fatalf("retained %d evicted %d, want %d and 7", st.Retained, st.Evicted, ring.Entries)
	}
	log := p.Queries()
	if len(log) != ring.Entries || log[0].Query != "Q7" || log[len(log)-1].Query != fmt.Sprintf("Q%d", n-1) {
		t.Fatalf("retained window wrong: first %+v last %+v", log[0], log[len(log)-1])
	}
	// Completing a retained entry still works; an evicted one is a no-op.
	p.Complete(ids[n-1], 100, 1, 0, nil)
	p.Complete(ids[0], 100, 1, 0, nil)
	log = p.Queries()
	if !log[len(log)-1].Completed {
		t.Fatalf("retained entry not completed: %+v", log[len(log)-1])
	}
	if log[0].Completed || p.Stats().Retained != ring.Entries {
		t.Fatal("ghost completion changed the retained window")
	}
}

func TestPatrollerRetentionCompacts(t *testing.T) {
	// Push the ring around several times and check the window stays exact:
	// wrapping must never drop or reorder live entries.
	p := journal.New()
	const n = 3*ring.Entries + 5
	for i := 0; i < n; i++ {
		p.Begin(fmt.Sprintf("Q%d", i), simclock.Time(i), "")
	}
	if st := p.Stats(); st.Retained != ring.Entries || st.Evicted != n-ring.Entries {
		t.Fatalf("stats %+v", st)
	}
	for i, e := range p.Queries() {
		if want := fmt.Sprintf("Q%d", n-ring.Entries+i); e.Query != want || e.ID != int64(n-ring.Entries+i+1) {
			t.Fatalf("entry %d: %q (id %d), want %q", i, e.Query, e.ID, want)
		}
	}
}

func TestPatrollerCountsCompletionsAfterEviction(t *testing.T) {
	p := journal.New()
	id0 := p.Begin("Q0", 0, "")
	for i := 1; i < ring.Entries+3; i++ {
		p.Begin(fmt.Sprintf("Q%d", i), simclock.Time(i), "")
	}
	// Q0 was evicted by the retention bound; its completion must be counted,
	// not silently dropped.
	p.Complete(id0, 100, 1, 0, nil)
	st := p.Stats()
	if st.CompletedAfterEviction != 1 {
		t.Fatalf("CompletedAfterEviction = %d, want 1", st.CompletedAfterEviction)
	}
	if st.Retained != ring.Entries || st.Evicted != 3 {
		t.Fatalf("stats = %+v, want Retained=%d Evicted=3", st, ring.Entries)
	}
	// A completion for an ID never handed out stays a pure no-op: it is a
	// caller bug, not an eviction casualty.
	for _, ghost := range []int64{999999, 0, -5} {
		p.Complete(ghost, 100, 1, 0, nil)
	}
	if got := p.Stats().CompletedAfterEviction; got != 1 {
		t.Fatalf("ghost completions counted as post-eviction: %d", got)
	}
}

func TestPatrollerQueueWaitLogged(t *testing.T) {
	p := journal.New()
	id := p.Begin("Q", 10, "")
	p.Complete(id, 60, 30, 20, nil)
	e := p.Queries()[0]
	if !e.Completed || e.ResponseTime != 30 || e.QueueWait != 20 {
		t.Fatalf("entry = %+v, want ResponseTime=30 QueueWait=20", e)
	}
}
