package repl

import (
	"strings"
	"testing"

	fedqcc "repro"
)

func newSession(t *testing.T, qccOn bool) (*Session, *strings.Builder) {
	t.Helper()
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	var cal *fedqcc.Calibrator
	if qccOn {
		cal = fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	}
	out := &strings.Builder{}
	return &Session{Fed: fed, Cal: cal, Out: out}, out
}

func run(s *Session, out *strings.Builder, line string) string {
	out.Reset()
	s.Execute(line)
	return out.String()
}

func TestSessionQuery(t *testing.T) {
	s, out := newSession(t, true)
	got := run(s, out, "SELECT COUNT(*) FROM parts AS p")
	if !strings.Contains(got, "[1 rows]") || !strings.Contains(got, "routed") {
		t.Fatalf("query output: %s", got)
	}
	got = run(s, out, "SELEKT")
	if !strings.Contains(got, "error:") {
		t.Fatalf("bad sql: %s", got)
	}
	if run(s, out, "   ") != "" {
		t.Fatal("blank line must be silent")
	}
}

func TestSessionLoadDownCongest(t *testing.T) {
	s, out := newSession(t, true)
	if got := run(s, out, "\\load S3 0.5"); !strings.Contains(got, "S3 load = 0.50") {
		t.Fatalf("load: %s", got)
	}
	if got := run(s, out, "\\load S3"); !strings.Contains(got, "usage") {
		t.Fatalf("load usage: %s", got)
	}
	if got := run(s, out, "\\load S3 abc"); !strings.Contains(got, "bad level") {
		t.Fatalf("load parse: %s", got)
	}
	if got := run(s, out, "\\load S9 1"); !strings.Contains(got, "unknown server") {
		t.Fatalf("load unknown: %s", got)
	}
	if got := run(s, out, "\\down S2"); !strings.Contains(got, "S2 down = true") {
		t.Fatalf("down: %s", got)
	}
	if got := run(s, out, "\\up S2"); !strings.Contains(got, "S2 down = false") {
		t.Fatalf("up: %s", got)
	}
	if got := run(s, out, "\\congest S1 4"); !strings.Contains(got, "4.0x") {
		t.Fatalf("congest: %s", got)
	}
}

func TestSessionExplainFactorsLogTables(t *testing.T) {
	s, out := newSession(t, true)
	run(s, out, "SELECT COUNT(*) FROM parts AS p")
	if got := run(s, out, "\\explain SELECT COUNT(*) FROM parts AS p"); !strings.Contains(got, "estimated") || !strings.Contains(got, "QF1") {
		t.Fatalf("explain: %s", got)
	}
	if got := run(s, out, "\\factors"); !strings.Contains(got, "calibration") || !strings.Contains(got, "II workload factor") {
		t.Fatalf("factors: %s", got)
	}
	if got := run(s, out, "\\log"); !strings.Contains(got, "SELECT COUNT(*)") {
		t.Fatalf("log: %s", got)
	}
	if got := run(s, out, "\\tables"); !strings.Contains(got, "orders on S1, S2, S3") {
		t.Fatalf("tables: %s", got)
	}
	if got := run(s, out, "\\help"); !strings.Contains(got, "\\replicate") {
		t.Fatalf("help: %s", got)
	}
	if got := run(s, out, "\\bogus"); !strings.Contains(got, "unknown command") {
		t.Fatalf("unknown: %s", got)
	}
}

func TestSessionAdviseExportReplicate(t *testing.T) {
	s, out := newSession(t, true)
	if got := run(s, out, "\\advise"); !strings.Contains(got, "no placement recommendations") {
		t.Fatalf("advise (calm): %s", got)
	}
	if got := run(s, out, "\\export S1 parts"); !strings.Contains(got, "p_id:INT") {
		t.Fatalf("export: %s", got)
	}
	if got := run(s, out, "\\export S1 ghost"); !strings.Contains(got, "error:") {
		t.Fatalf("export error: %s", got)
	}
	if got := run(s, out, "\\replicate parts S1 S2"); !strings.Contains(got, "error:") {
		t.Fatalf("replicate duplicate: %s", got)
	}
	if got := run(s, out, "\\replicate parts"); !strings.Contains(got, "usage") {
		t.Fatalf("replicate usage: %s", got)
	}
}

func TestSessionWithoutQCC(t *testing.T) {
	s, out := newSession(t, false)
	if got := run(s, out, "\\factors"); !strings.Contains(got, "QCC disabled") {
		t.Fatalf("factors: %s", got)
	}
	if got := run(s, out, "\\advise"); !strings.Contains(got, "QCC disabled") {
		t.Fatalf("advise: %s", got)
	}
	if got := run(s, out, "SELECT COUNT(*) FROM parts AS p"); !strings.Contains(got, "routed") {
		t.Fatalf("query: %s", got)
	}
}

func TestSessionQueueAndTenants(t *testing.T) {
	s, out := newSession(t, false)
	if got := run(s, out, "\\tenants"); !strings.Contains(got, "no tenants registered") {
		t.Fatalf("tenants (none): %s", got)
	}
	s.Fed.Admission().RegisterTenant(fedqcc.Tenant{Name: "gold", Weight: 3, MaxQueue: 5})
	run(s, out, "SELECT COUNT(*) FROM parts AS p")

	got := run(s, out, "\\queue")
	i, b := strings.Index(got, "-- interactive: running 0 queued 0 | admitted 1"), strings.Index(got, "-- batch: running 0 queued 0 | admitted 0")
	if i < 0 || b < 0 || i > b {
		t.Fatalf("queue must list interactive (with the query) before batch: %s", got)
	}
	if !strings.Contains(got, "-- admission: 0 running, 0 queued, 1 released") {
		t.Fatalf("queue totals: %s", got)
	}

	got = run(s, out, "\\tenants")
	if !strings.Contains(got, "-- gold: weight 3.0, max queue 5") {
		t.Fatalf("tenants must show gold's weight and queue bound: %s", got)
	}
	if !strings.Contains(got, "--  (implicit): running 0 queued 0 | admitted 1") {
		t.Fatalf("tenants must show the untagged query under the default tenant: %s", got)
	}
}
