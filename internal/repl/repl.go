// Package repl implements the command processor behind cmd/fedsql: SQL
// lines execute federated queries; backslash commands inspect and steer the
// federation. Factoring it out of the binary keeps the command surface
// testable.
package repl

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	fedqcc "repro"
)

// Session couples a federation (and optional calibrator) with an output
// stream.
type Session struct {
	Fed *fedqcc.Federation
	Cal *fedqcc.Calibrator // nil when QCC is disabled
	Out io.Writer
}

// Execute processes one input line: a backslash command or a SQL statement.
func (s *Session) Execute(line string) {
	line = strings.TrimSpace(line)
	if line == "" {
		return
	}
	if strings.HasPrefix(line, "\\") {
		s.command(line)
		return
	}
	res, err := s.Fed.Query(line)
	if err != nil {
		fmt.Fprintln(s.Out, "error:", err)
		return
	}
	fmt.Fprintln(s.Out, res.Rows)
	var slowest fedqcc.Time
	for _, ft := range res.FragmentTimes {
		slowest = max(slowest, ft)
	}
	fmt.Fprintf(s.Out, "-- routed %v, response %.2fms (merge %.2fms, %.2fms overlapped) at t=%s\n",
		res.Route, float64(res.ResponseTime), float64(res.MergeTime), float64(slowest+res.MergeTime-res.ResponseTime), s.Fed.Now())
}

func (s *Session) command(line string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\help":
		fmt.Fprint(s.Out, helpText)
	case "\\load":
		if len(fields) != 3 {
			fmt.Fprintln(s.Out, "usage: \\load <server> <level>")
			return
		}
		lvl, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			fmt.Fprintln(s.Out, "bad level:", err)
			return
		}
		h, err := s.Fed.Server(fields[1])
		if err != nil {
			fmt.Fprintln(s.Out, err)
			return
		}
		h.SetLoad(lvl)
		fmt.Fprintf(s.Out, "-- %s load = %.2f\n", fields[1], lvl)
	case "\\down", "\\up":
		if len(fields) != 2 {
			fmt.Fprintln(s.Out, "usage: \\down|\\up <server>")
			return
		}
		h, err := s.Fed.Server(fields[1])
		if err != nil {
			fmt.Fprintln(s.Out, err)
			return
		}
		h.SetDown(fields[0] == "\\down")
		fmt.Fprintf(s.Out, "-- %s down = %v\n", fields[1], h.Down())
	case "\\congest":
		if len(fields) != 3 {
			fmt.Fprintln(s.Out, "usage: \\congest <server> <multiplier>")
			return
		}
		c, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			fmt.Fprintln(s.Out, "bad multiplier:", err)
			return
		}
		h, err := s.Fed.Server(fields[1])
		if err != nil {
			fmt.Fprintln(s.Out, err)
			return
		}
		h.SetCongestion(c)
		fmt.Fprintf(s.Out, "-- %s congestion = %.1fx\n", fields[1], c)
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		info, err := s.Fed.Explain(sql)
		if err != nil {
			fmt.Fprintln(s.Out, "error:", err)
			return
		}
		fmt.Fprintf(s.Out, "-- estimated %.2fms, route %v\n", info.TotalCostMS, info.Route)
		for id, plan := range info.FragmentPlans {
			fmt.Fprintf(s.Out, "-- %s (%.2fms):\n%s", id, info.FragmentCostMS[id], indent(plan))
		}
	case "\\factors":
		if s.Cal == nil {
			fmt.Fprintln(s.Out, "-- QCC disabled")
			return
		}
		for _, id := range s.Fed.ServerIDs() {
			fmt.Fprintf(s.Out, "-- %s: calibration %.3f reliability %.3f fenced=%v\n",
				id, s.Cal.ServerFactor(id), s.Cal.ReliabilityFactor(id), s.Cal.IsFenced(id))
		}
		fmt.Fprintf(s.Out, "-- II workload factor %.3f, recalibration cycle %s\n",
			s.Cal.IIFactor(), s.Cal.RecalibrationInterval())
	case "\\log":
		for _, e := range s.Fed.QueryLog() {
			status := "ok"
			if e.Err != "" {
				status = "ERR " + e.Err
			}
			fmt.Fprintf(s.Out, "-- [%s +%.2fms] %s (%s)\n", e.SubmitAt, float64(e.ResponseTime), e.Query, status)
		}
	case "\\advise":
		if s.Cal == nil {
			fmt.Fprintln(s.Out, "-- QCC disabled")
			return
		}
		recs := s.Cal.AdvisePlacement(0)
		if len(recs) == 0 {
			fmt.Fprintln(s.Out, "-- no placement recommendations")
			return
		}
		for _, r := range recs {
			fmt.Fprintf(s.Out, "-- replicate %q: %s -> %s (%s)\n", r.Nickname, r.From, r.To, r.Reason)
		}
	case "\\replicate":
		if len(fields) != 4 {
			fmt.Fprintln(s.Out, "usage: \\replicate <nickname> <from> <to>")
			return
		}
		err := s.Fed.ApplyReplication(fedqcc.PlacementRecommendation{
			Nickname: fields[1], From: fields[2], To: fields[3],
		})
		if err != nil {
			fmt.Fprintln(s.Out, "error:", err)
			return
		}
		fmt.Fprintf(s.Out, "-- %q replicated %s -> %s\n", fields[1], fields[2], fields[3])
	case "\\export":
		if len(fields) != 3 {
			fmt.Fprintln(s.Out, "usage: \\export <server> <table>")
			return
		}
		if err := s.Fed.ExportCSV(fields[1], fields[2], s.Out); err != nil {
			fmt.Fprintln(s.Out, "error:", err)
		}
	case "\\tables":
		for _, n := range s.Fed.Nicknames() {
			hosts, _ := s.Fed.PlacementsOf(n)
			fmt.Fprintf(s.Out, "-- %s on %s\n", n, strings.Join(hosts, ", "))
		}
	case "\\telemetry":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(s.Out, "usage: \\telemetry on|off")
			return
		}
		if fields[1] == "on" {
			s.Fed.EnableTelemetry()
		} else {
			s.Fed.DisableTelemetry()
		}
		fmt.Fprintf(s.Out, "-- telemetry %s\n", fields[1])
	case "\\trace":
		tel := s.Fed.Telemetry()
		tr := tel.Tracer().Last()
		if tr == nil {
			fmt.Fprintln(s.Out, "-- no traces collected (try \\telemetry on, then run a query)")
			return
		}
		fmt.Fprint(s.Out, tr.Tree())
	case "\\queue":
		adm := s.Fed.Admission()
		st := adm.Stats()
		fmt.Fprintf(s.Out, "-- admission: %d running, %d queued, %d released\n",
			st.Running, st.Queued, st.Releases)
		for _, cs := range st.Classes {
			fmt.Fprintf(s.Out, "-- %s: running %d queued %d | admitted %d waited %d held %d shed %d rejected %d cancelled %d | total wait %.2fms\n",
				cs.Name, cs.Running, cs.Queued,
				cs.Admitted, cs.QueuedTotal, cs.Held, cs.Shed, cs.Rejected, cs.Cancelled,
				float64(cs.TotalQueueWait))
		}
		ls := s.Fed.QueryLogStats()
		fmt.Fprintf(s.Out, "-- patroller: %d retained, %d evicted, %d completions after eviction\n",
			ls.Retained, ls.Evicted, ls.CompletedAfterEviction)
	case "\\tenants":
		adm := s.Fed.Admission()
		regs := adm.Tenants()
		if len(regs) == 0 {
			fmt.Fprintln(s.Out, "-- no tenants registered (scheduling is tenant-unaware)")
		}
		for _, t := range regs {
			fmt.Fprintf(s.Out, "-- %s: weight %.1f, max queue %d (0 = unbounded)\n",
				t.Name, t.Weight, t.MaxQueue)
		}
		for _, ts := range adm.TenantStats() {
			reg := ""
			if !ts.Registered {
				reg = " (implicit)"
			}
			fmt.Fprintf(s.Out, "-- %s%s: running %d queued %d | admitted %d waited %d shed %d rejected %d cancelled %d | served %.2fms wait %.2fms\n",
				ts.Name, reg, ts.Running, ts.Queued,
				ts.Admitted, ts.QueuedTotal, ts.Shed, ts.Rejected, ts.Cancelled,
				ts.ServedCostMS, float64(ts.TotalQueueWait))
		}
		ls := s.Fed.QueryLogStats()
		for _, t := range ls.Tenants {
			fmt.Fprintf(s.Out, "-- log %s: completed %d failed %d shed %d | served %.2fms\n",
				t.Name, t.Completed, t.Failed, t.Shed, float64(t.ServedCostMS))
		}
		if ls.TenantsDropped > 0 {
			fmt.Fprintf(s.Out, "-- log: %d completions beyond the per-tenant accounting bound\n", ls.TenantsDropped)
		}
	case "\\route":
		n := 10
		if len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				fmt.Fprintln(s.Out, "usage: \\route [n]")
				return
			}
			n = v
		}
		decisions := s.Fed.RouteDecisions(n)
		if len(decisions) == 0 {
			fmt.Fprintln(s.Out, "-- no routing decisions recorded (enable QCC or weighted routing, then run queries)")
			return
		}
		for _, d := range decisions {
			fmt.Fprintf(s.Out, "-- [%s] %-8s %v — %s | %s\n", d.At, d.Policy, d.Route, d.Reason, d.Query)
		}
	case "\\metrics":
		fmt.Fprint(s.Out, fedqcc.FormatMetrics(s.Fed.Telemetry().Metrics()))
	case "\\timeline":
		fmt.Fprint(s.Out, fedqcc.FormatTimeline(s.Fed.Telemetry().Timelines()))
	default:
		fmt.Fprintln(s.Out, "unknown command:", fields[0], "(try \\help)")
	}
}

const helpText = `commands:
  \help                        this text
  \tables                      nicknames and their placements
  \load <server> <level>       set background load in [0,1]
  \down <server> | \up <server>  availability control
  \congest <server> <mult>     network congestion multiplier
  \explain <sql>               compile only, show plan and cost
  \factors                     QCC calibration state
  \advise                      placement recommendations
  \replicate <nick> <from> <to>  apply a replication
  \export <server> <table>     dump a table as CSV
  \log                         query patroller log
  \route [n]                   last n routing decisions (default 10)
  \queue                       admission controller and patroller stats
  \tenants                     tenant registry, fair-share and queue stats
  \telemetry on|off            toggle trace/metric collection
  \trace                       span tree of the most recent query
  \metrics                     metrics registry dump
  \timeline                    calibration factor timeline per server
`

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "     " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
