// QCC learns from the journal and from nothing else: replaying a federation's
// journal into fresh calibration, reliability and availability stores gives
// the live calibrator's published state bit for bit, so the record explains
// every factor.
package fedqcc_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/qcc"
	"repro/internal/scenario"
	"repro/internal/simclock"
)

// replayJoin is a cross-source join: two fragments and an II merge.
const replayJoin = "SELECT COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > %d"

// replayed is QCC's learned state rebuilt from a journal.
type replayed struct {
	calib *qcc.Calibration
	rel   *qcc.Reliability
	avail *qcc.Availability
}

// replay feeds every observation the journal holds into fresh stores, the
// source observations (runs, errors, probes) in their one numbered order and
// the merges in theirs, and publishes at now. A run or merge is dated by its
// query's submission: the clock stands still while a query executes (its
// charge lands when it completes), and a replay whose observations span
// less than the calibration window's age cut does not depend on the dates
// at all.
func replay(t *testing.T, j *journal.Journal, now simclock.Time) replayed {
	t.Helper()
	r := replayed{
		calib: qcc.NewCalibration(qcc.CalibrationConfig{PerFragment: true}),
		rel:   qcc.NewReliability(),
		avail: qcc.NewAvailability(qcc.AvailabilityConfig{}),
	}
	if j.Runs.Evicted()+j.Errors.Evicted()+j.Probes.Evicted()+j.Merges.Evicted() != 0 {
		t.Fatal("the journal dropped observations: nothing to replay from")
	}
	submit := map[int64]simclock.Time{}
	for _, q := range j.Queries() {
		submit[q.ID] = q.SubmitAt
	}
	at := func(id int64) simclock.Time {
		s, ok := submit[id]
		if !ok {
			t.Fatalf("observation of query %d, which the journal does not hold", id)
		}
		return s
	}
	fail := func(server string, down bool) {
		r.rel.RecordFailure(server)
		if down {
			r.avail.MarkDown(server)
		}
	}
	runs, errs, probes := j.Runs.Tail(0), j.Errors.Tail(0), j.Probes.Tail(0)
	var ri, ei, pi int
	for seq := int64(1); ri+ei+pi < len(runs)+len(errs)+len(probes); seq++ {
		switch {
		case ei < len(errs) && errs[ei].Seq == seq:
			fail(errs[ei].ServerID, errs[ei].Down)
			ei++
		case pi < len(probes) && probes[pi].Seq == seq:
			p := probes[pi]
			pi++
			if p.Err != "" {
				fail(p.ServerID, p.Down)
				continue
			}
			r.avail.MarkUp(p.ServerID)
			r.rel.RecordSuccess(p.ServerID)
			r.calib.RecordProbe(p.ServerID, p.RTTMS)
		default:
			if ri == len(runs) {
				t.Fatalf("observation %d is neither an error, a probe nor a run", seq)
			}
			run := runs[ri]
			ri++
			when := at(run.QueryID)
			r.calib.RecordRun(when, metawrapper.FragmentKey{ServerID: run.ServerID, Signature: run.Fragment}, run.EstMS, run.ObservedMS)
			if run.FirstRowMS > 0 {
				r.calib.RecordFirstRow(when, run.ServerID, run.FirstTupleEstMS, run.FirstRowMS)
			}
			r.rel.RecordSuccess(run.ServerID)
			r.avail.MarkUp(run.ServerID)
		}
	}
	for _, m := range j.Merges.Tail(0) {
		r.calib.RecordII(at(m.QueryID), m.CalibratedEstMS, m.ObservedMS)
	}
	r.calib.Publish(now)
	return r
}

// sameBits reports whether two published values are the same float64.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// matchLive compares the replayed stores with the live QCC's published
// factors, reliability and fence state, every server and fragment.
func matchLive(t *testing.T, sc *scenario.Scenario, q *qcc.QCC, r replayed) {
	t.Helper()
	for _, id := range sc.MW.Servers() {
		if live, got := q.Calib.ServerFactor(id), r.calib.ServerFactor(id); !sameBits(live, got) {
			t.Errorf("%s server factor: live %v, replayed %v", id, live, got)
		}
		lf, lok := q.Calib.FirstRowFactor(id)
		rf, rok := r.calib.FirstRowFactor(id)
		if lok != rok || !sameBits(lf, rf) {
			t.Errorf("%s first-row factor: live %v (%v), replayed %v (%v)", id, lf, lok, rf, rok)
		}
		if live, got := q.Rel.Factor(id), r.rel.Factor(id); !sameBits(live, got) {
			t.Errorf("%s reliability factor: live %v, replayed %v", id, live, got)
		}
		if live, got := q.Avail.IsDown(id), r.avail.IsDown(id); live != got {
			t.Errorf("%s fenced: live %v, replayed %v", id, live, got)
		}
		if live, got := q.Avail.DownEvents(id), r.avail.DownEvents(id); live != got {
			t.Errorf("%s fence events: live %d, replayed %d", id, live, got)
		}
	}
	keys := map[metawrapper.FragmentKey]bool{}
	for _, run := range sc.MW.Journal().Runs.Tail(0) {
		keys[metawrapper.FragmentKey{ServerID: run.ServerID, Signature: run.Fragment}] = true
	}
	for key := range keys {
		if live, got := q.Calib.FragmentFactor(key), r.calib.FragmentFactor(key); !sameBits(live, got) {
			t.Errorf("%s fragment factor %q: live %v, replayed %v", key.ServerID, key.Signature, live, got)
		}
	}
	if live, got := q.Calib.IIFactor(), r.calib.IIFactor(); !sameBits(live, got) {
		t.Errorf("II factor: live %v, replayed %v", live, got)
	}
}

func attachForReplay(t *testing.T) (*scenario.Scenario, *qcc.QCC) {
	t.Helper()
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Calibration:    qcc.CalibrationConfig{PerFragment: true},
		DisableDaemons: true,
	}, sc.II)
	return sc, q
}

// TestJournalReplayReproducesQCC drives a federation through load, transient
// failures, an outage and its recovery, and a second outage that is still on
// at the end, publishing as it goes. Every kind of observation moves
// something: runs the server and fragment factors, streamed first rows the
// first-row factors, merges the II factor, probes and errors reliability and
// fencing. The replay must give the live published state bit for bit.
func TestJournalReplayReproducesQCC(t *testing.T) {
	sc, q := attachForReplay(t)
	queries := func(n int) {
		for i := 0; i < n; i++ {
			for _, sql := range []string{
				fmt.Sprintf(replayJoin, 9000-100*i),
				"SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100",
				"SELECT COUNT(*) FROM lineitem AS l",
			} {
				if _, err := sc.II.Query(sql); err != nil {
					t.Fatal(err)
				}
			}
			q.PublishNow()
		}
	}
	q.ProbeNow()
	queries(3)
	sc.Servers["S2"].SetLoadLevel(1)
	queries(3)
	sc.Servers["R1"].InjectFailures(1) // transient: reliability falls, no fence
	queries(2)
	sc.Servers["S1"].SetDown(true)
	queries(2)
	q.ProbeNow()
	sc.Servers["S1"].SetDown(false)
	q.ProbeNow()
	queries(2)
	sc.Servers["R2"].SetDown(true) // after the last probe: only errors fence it
	queries(2)
	q.PublishNow()

	for _, id := range []string{"S1", "R2"} {
		if q.Avail.DownEvents(id) == 0 {
			t.Fatalf("%s was never fenced: the scenario does not exercise fencing", id)
		}
	}
	if !q.Avail.IsDown("R2") || q.Avail.IsDown("S1") {
		t.Fatal("want R2 fenced and S1 re-admitted at the end")
	}
	if q.Calib.IIFactor() == 1 || q.Rel.Factor("R1") == 1 {
		t.Fatalf("II factor %v, R1 reliability %v: the scenario moved neither", q.Calib.IIFactor(), q.Rel.Factor("R1"))
	}
	if _, ok := q.Calib.FirstRowFactor("S1"); !ok {
		t.Fatal("no first-row factor published: the scenario streamed nothing")
	}
	matchLive(t, sc, q, replay(t, sc.MW.Journal(), sc.Clock.Now()))
}

// TestQCCSubscriberUnderConcurrentQueries: with QCC subscribed, cross-source
// joins from eight goroutines dispatch their fragments concurrently, and QCC
// must still have learned exactly what the journal holds, in the order it
// holds it (a calibration factor is a sum of observations, and float sums
// depend on their order).
func TestQCCSubscriberUnderConcurrentQueries(t *testing.T) {
	sc, q := attachForReplay(t)
	const workers, each = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := sc.II.Query(fmt.Sprintf(replayJoin, 9000-10*(w*each+i))); err != nil {
					errs <- err
				}
				if i == each/2 {
					q.ProbeNow()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	q.PublishNow()
	j := sc.MW.Journal()
	if st := q.StatsSnapshot(); st.Runs != j.Runs.Total() || st.Runs < 2*workers*each || j.Merges.Total() != workers*each {
		t.Fatalf("QCC counted %d runs; the journal holds %d runs and %d merges for %d joins", st.Runs, j.Runs.Total(), j.Merges.Total(), workers*each)
	}
	matchLive(t, sc, q, replay(t, j, sc.Clock.Now()))
}
