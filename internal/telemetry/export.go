package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// spanJSON mirrors Span for JSON export (Span itself holds a mutex and
// unexported fields).
type spanJSON struct {
	Name     string     `json:"name"`
	Layer    Layer      `json:"layer"`
	Server   string     `json:"server,omitempty"`
	Start    float64    `json:"start_ms"`
	Dur      float64    `json:"dur_ms"`
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []spanJSON `json:"children,omitempty"`
}

// traceJSON mirrors Trace for JSON export.
type traceJSON struct {
	ID       int64    `json:"id"`
	Query    string   `json:"query"`
	SubmitAt float64  `json:"submit_at_ms"`
	Done     bool     `json:"done"`
	Err      string   `json:"err,omitempty"`
	Root     spanJSON `json:"root"`
}

func spanToJSON(s *Span) spanJSON {
	out := spanJSON{
		Name:   s.Name(),
		Layer:  s.Layer(),
		Server: s.Server(),
		Start:  float64(s.Start()),
		Dur:    float64(s.Dur()),
		Attrs:  s.Attrs(),
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}

// MarshalJSON exports the whole trace as a nested span tree.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.Marshal(traceJSON{
		ID:       t.ID,
		Query:    t.Query,
		SubmitAt: float64(t.SubmitAt),
		Done:     t.Done(),
		Err:      t.Err(),
		Root:     spanToJSON(t.Root),
	})
}

// Tree renders the trace as an indented human-readable span tree with
// virtual-time offsets and durations, e.g.:
//
//	trace #3 "SELECT ..." submit=120.0ms total=46.2ms
//	└─ query                      ii            @0.0ms  46.2ms
//	   ├─ plancache.lookup        ii            @0.0ms   0.0ms  hit=false
//	   ...
func (t *Trace) Tree() string {
	if t == nil {
		return "(no trace)"
	}
	var b strings.Builder
	status := ""
	if e := t.Err(); e != "" {
		status = " ERR=" + e
	} else if !t.Done() {
		status = " (in flight)"
	}
	fmt.Fprintf(&b, "trace #%d %q submit=%.1fms total=%.2fms%s\n",
		t.ID, t.Query, float64(t.SubmitAt), float64(t.Root.Dur()), status)
	writeSpanTree(&b, t.Root, "", true)
	return b.String()
}

func writeSpanTree(b *strings.Builder, s *Span, prefix string, last bool) {
	if s == nil {
		return
	}
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	label := s.Name()
	if srv := s.Server(); srv != "" {
		label += "(" + srv + ")"
	}
	fmt.Fprintf(b, "%s%s%-34s %-12s @%8.2fms %9.2fms", prefix, branch, label, s.Layer(), float64(s.Start()), float64(s.Dur()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(b, "  %s=%s", a.Key, firstLine(a.Value))
	}
	b.WriteByte('\n')
	children := s.Children()
	for i, c := range children {
		writeSpanTree(b, c, childPrefix, i == len(children)-1)
	}
}

// firstLine keeps multi-line attr values (e.g. physical plan trees) from
// breaking the one-line-per-span layout.
func firstLine(v string) string {
	if i := strings.IndexByte(v, '\n'); i >= 0 {
		return v[:i] + " …"
	}
	return v
}

// FormatMetrics renders a registry snapshot as an aligned human-readable
// table, counters/gauges one per line and histograms with count/mean.
func FormatMetrics(r *Registry) string {
	if r == nil {
		return "(telemetry disabled)\n"
	}
	snap := r.Snapshot()
	if len(snap) == 0 {
		return "(no metrics recorded)\n"
	}
	var b strings.Builder
	for _, m := range snap {
		name := m.Name
		if m.Label != "" {
			name += "{" + m.Label + "}"
		}
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-44s count=%-6d mean=%.2fms sum=%.2fms\n", name, m.Count, m.Value, m.Sum)
		case "gauge":
			fmt.Fprintf(&b, "%-44s %.4f\n", name, m.Value)
		default:
			fmt.Fprintf(&b, "%-44s %d\n", name, int64(m.Value))
		}
	}
	if d := r.DroppedSeries(); d > 0 {
		fmt.Fprintf(&b, "(%d series dropped by cardinality cap)\n", d)
	}
	return b.String()
}

// FormatTimeline renders the calibration-factor timeline grouped by server,
// samples in time order — the paper's calibration-factor vs. load artifact in
// text form.
func FormatTimeline(ts *TimelineStore) string {
	if ts == nil {
		return "(telemetry disabled)\n"
	}
	samples := ts.Tail(0)
	if len(samples) == 0 {
		return "(no calibration samples)\n"
	}
	byServer := map[string][]FactorSample{}
	for _, s := range samples {
		byServer[s.Server] = append(byServer[s.Server], s)
	}
	servers := make([]string, 0, len(byServer))
	for srv := range byServer {
		servers = append(servers, srv)
	}
	sort.Strings(servers)
	var b strings.Builder
	for _, srv := range servers {
		fmt.Fprintf(&b, "%s:\n", srv)
		for _, s := range byServer[srv] {
			fmt.Fprintf(&b, "  t=%10.1fms  factor=%.4f\n", float64(s.At), s.Factor)
		}
	}
	if e := ts.Evicted(); e > 0 {
		fmt.Fprintf(&b, "(%d samples evicted by retention bound)\n", e)
	}
	return b.String()
}
