package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval the harness recorded around a call into a layer.
// Spans of one query share its Query index; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Query    int    `json:"query"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	workload string
	base     time.Time
	spans    []span
}

func newSpanLog(workload string, capacity int) *spanLog {
	return &spanLog{workload: workload, base: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished interval and returns its ID.
func (l *spanLog) add(name string, parent, query int, start time.Time, dur time.Duration) int {
	id := len(l.spans) + 1
	s := start.Sub(l.base).Nanoseconds()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, Query: query, StartNS: s, EndNS: s + dur.Nanoseconds()})
	return id
}

// open starts a span whose end is not yet known; end closes it.
func (l *spanLog) open(name string, parent, query int) int {
	return l.add(name, parent, query, time.Now(), 0)
}

func (l *spanLog) end(id int) {
	l.spans[id-1].EndNS = time.Since(l.base).Nanoseconds()
}

// timed runs fn inside a span and returns its wall time.
func (l *spanLog) timed(name string, parent, query int, fn func()) int64 {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.add(name, parent, query, t0, d)
	return d.Nanoseconds()
}

// selfTimes returns, per span name, the mean over spans of (duration minus
// the part of the interval its children cover), in microseconds.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := map[string]float64{}
	count := map[string]float64{}
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < until {
				lo = until
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		sum[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e3
		count[s.Name]++
	}
	for name := range sum {
		sum[name] /= count[name]
	}
	return sum
}

// write stores the spans with the per-layer table they produced in
// <dir>/spans_<workload>.json.
func (l *spanLog) write(dir string, layers []metric) error {
	path := filepath.Join(dir, "spans_"+l.workload+".json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		PerLayer []metric           `json:"per_layer"`
		SelfUS   map[string]float64 `json:"mean_self_us_by_span"`
		Spans    []span             `json:"spans"`
	}{l.workload, layers, l.selfTimes(), l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
