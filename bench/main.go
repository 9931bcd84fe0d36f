// Command bench is the repository's one performance benchmark: four long
// closed-loop workloads over the federated engine, measured on both clocks
// (virtual time is the product, wall time the cost of running the engine)
// and checked against a single-site oracle. README.md has the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// header records what a run's numbers were taken on.
type header struct {
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GOGC        int            `json:"gogc"`
	NProc       int            `json:"nproc"`
	Seed        int64          `json:"seed"`
	Passes      map[string]int `json:"passes"`
	PassesScale float64        `json:"passes_scale"`
	Seconds     float64        `json:"seconds"`
	TotalWallS  float64        `json:"total_wall_s"`
}

type report struct {
	Header header     `json:"header"`
	Runs   []*outcome `json:"runs"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// pinRuntime fixes the two runtime settings wall numbers depend on.
func pinRuntime() error {
	runtime.GOMAXPROCS(2)
	if got := runtime.GOMAXPROCS(0); got != 2 {
		return fmt.Errorf("bench: GOMAXPROCS is %d and cannot be set to 2; refusing to produce incomparable numbers", got)
	}
	debug.SetGCPercent(100)
	return nil
}

func main() {
	cfg := runConfig{spansDir: "bench/out"}
	flag.Int64Var(&cfg.seed, "seed", 7, "drives every query list and the update bursts (0 means 42); the tables are pinned")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured phase; the fixed passes always complete, the rest of the time goes to further cold starts")
	flag.Float64Var(&cfg.passesScale, "passes-scale", 1, "scale every fixed pass count (gated numbers use 1)")
	var (
		workload = flag.String("workload", "", "run one workload (paper_mix, adhoc_cold, ship_cols, xjoin_churn); default all four")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		outPath  = flag.String("out", "", "write the full report as JSON to this file")
		aa       = flag.Int("aa", 0, "A/A check: two interleaved sets of N full runs of this binary; non-zero exit when set medians differ by more than a metric's bound")
	)
	flag.Parse()
	if err := run(cfg, *workload, *trace == 1, *outPath, *aa); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(cfg runConfig, workload string, traced bool, outPath string, aa int) error {
	if err := pinRuntime(); err != nil {
		return err
	}
	if cfg.seed == 0 {
		cfg.seed = 42
	}
	selected := specs
	if workload != "" {
		s, err := specByName(workload)
		if err != nil {
			return err
		}
		selected = []*spec{s}
	}
	if aa > 0 {
		return runAA(selected, cfg, aa)
	}

	began := time.Now()
	rep := report{Header: header{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: 2, GOGC: 100, NProc: runtime.NumCPU(),
		Seed: cfg.seed, Passes: map[string]int{}, PassesScale: cfg.passesScale, Seconds: cfg.seconds,
	}}
	for _, s := range selected {
		rep.Header.Passes[s.name] = cfg.passes(s)
	}
	fmt.Printf("# commit=%s go=%s GOMAXPROCS=2 GOGC=100 nproc=%d seed=%d passes=%v traced=%v\n",
		rep.Header.Commit, rep.Header.GoVersion, rep.Header.NProc, cfg.seed, rep.Header.Passes, traced)
	failed := 0
	for _, s := range selected {
		var (
			out *outcome
			err error
		)
		if traced {
			out, err = runTraced(s, cfg)
		} else {
			out, err = runEndToEnd(s, cfg)
		}
		if err != nil {
			return err
		}
		printOutcome(out)
		rep.Runs = append(rep.Runs, out)
		failed += out.Failed
	}
	rep.Header.TotalWallS = time.Since(began).Seconds()
	fmt.Printf("# total wall %.1f s\n", rep.Header.TotalWallS)
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if workload != "" {
		// The benchmark contract's result line: the last line of stdout.
		return printContractLine(rep.Runs[0], traced)
	}
	if failed > 0 {
		return fmt.Errorf("bench: %d failed operations", failed)
	}
	return nil
}

func printOutcome(o *outcome) {
	fmt.Printf("\n== %s seed=%d passes=%d cold_starts=%d distinct=%d attempted=%d failed=%d wall=%.1fs\n",
		o.Workload, o.Seed, o.Passes, o.ColdStarts, o.Queries, o.Attempted, o.Failed, o.WallS)
	for _, f := range o.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, m := range o.Metrics {
		fmt.Printf("%-34s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
}

// printContractLine prints {"correct","attempted","failed","metrics"}: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func printContractLine(o *outcome, traced bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range o.Metrics {
		if strings.Contains(m.Name, ".") == traced { // per-layer names are <module>.<metric>
			metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.Failed == 0,
		"attempted": o.Attempted,
		"failed":    o.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
