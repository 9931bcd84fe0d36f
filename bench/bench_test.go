package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/sqltypes"
)

// smoke is a run short enough for `go test`: tables of 400 rows, one or two
// passes.
func smoke(seed int64) runConfig {
	return runConfig{seed: seed, passesScale: 1.0 / 32, tableScale: 250}
}

func (o *outcome) value(name string) float64 {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// manifest is the part of BENCHMARK.json the emitted metrics must match.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// exact reports whether a metric is a count of virtual time or wire bytes,
// which one seed must reproduce bit for bit.
func exact(name string) bool {
	return strings.HasPrefix(name, "virt_") || strings.Contains(name, ".virt_") ||
		name == "wire_bytes_per_query" || name == "colbatch.wire_bytes_per_row"
}

// checkRun runs one workload twice on one seed and checks the metric names
// and units against BENCHMARK.json and the exact metrics against each other.
func checkRun(t *testing.T, s *spec, run func(*spec, runConfig) (*outcome, error), want []struct{ Name, Unit string }) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	first, err := run(s, smoke(7))
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed != 0 || first.Attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", s.name, first.Failed, first.Attempted, first.Failures)
	}
	second, err := run(s, smoke(7))
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]string{}
	for _, mt := range first.Metrics {
		emitted[mt.Name] = mt.Unit
		if !valid.MatchString(mt.Name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", s.name, mt.Name)
		}
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			t.Errorf("%s: %s = %v", s.name, mt.Name, mt.Value)
		}
		if again := second.value(mt.Name); exact(mt.Name) && again != mt.Value {
			t.Errorf("%s: %s is %v then %v on one seed", s.name, mt.Name, mt.Value, again)
		}
	}
	for _, w := range want {
		if unit, ok := emitted[w.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not emitted", s.name, w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", s.name, w.Name, unit, w.Unit)
		}
	}
}

func TestEndToEndMetricsMatchManifestAndRepeat(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(m.Workloads), len(specs))
	}
	for i, s := range specs {
		if m.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, m.Workloads[i].Name, s.name)
		}
		checkRun(t, s, runEndToEnd, m.EndToEnd)
	}
}

// The traced run is checked on the two workloads that differ most: one
// fragment per query on the row engine, and four parallel shard fragments
// on the columnar wire (whose spans attach in scheduling order).
func TestPerLayerMetricsMatchManifestAndRepeat(t *testing.T) {
	m := readManifest(t)
	for _, s := range []*spec{paperMix, shipCols} {
		checkRun(t, s, runTraced, m.PerLayer)
	}
}

func TestSeedChangesQueryLists(t *testing.T) {
	for _, s := range specs {
		list := func(seed int64) []string { return s.queries(rand.New(rand.NewSource(seed))) }
		a, b := list(7), list(11)
		if !reflect.DeepEqual(a, list(7)) {
			t.Errorf("%s: seed 7 gives two different query lists", s.name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 11 give the same query list", s.name)
		}
		seen := map[string]bool{}
		for _, q := range a {
			if seen[q] {
				t.Errorf("%s: query repeated in the list: %s", s.name, q)
			}
			seen[q] = true
		}
	}
}

func TestWrongOracleAnswerIsAFailedOperation(t *testing.T) {
	cfg := smoke(7)
	cfg.tamper = func(qi int, want *fedqcc.Relation) *fedqcc.Relation {
		if qi != 3 {
			return want
		}
		wrong := &fedqcc.Relation{Schema: want.Schema, Rows: append([]fedqcc.Row(nil), want.Rows...)}
		wrong.Rows = append(wrong.Rows, make(fedqcc.Row, want.Schema.Len()))
		for i := range wrong.Rows[len(wrong.Rows)-1] {
			wrong.Rows[len(wrong.Rows)-1][i] = sqltypes.Null
		}
		return wrong
	}
	out, err := runEndToEnd(shipCols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Errorf("one wrong oracle answer gave %d failed operations, want 1: %v", out.Failed, out.Failures)
	}
}
