package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// contractLine is the result line a single-workload run ends with.
type contractLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json, the
// one place they are written down.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: -aa reads the bounds from BENCHMARK.json at the repository root: %w", err)
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// runAA runs this same binary 2n times per workload, alternating the runs
// between two sets, and fails when any end-to-end metric's two set medians
// differ by more than its bound: the benchmark must not see a difference
// where there is none.
func runAA(selected []*spec, cfg runConfig, n int) error {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]map[string][]float64
	sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
	for i := 0; i < 2*n; i++ {
		for _, s := range selected {
			out, err := exec.Command(exe,
				"-workload", s.name,
				"-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds),
				"-passes-scale", fmt.Sprint(cfg.passesScale),
			).Output()
			if err != nil {
				return fmt.Errorf("bench: A/A run %d of %s: %w", i, s.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("bench: A/A run %d of %s: result line: %w", i, s.name, err)
			}
			if !line.Correct {
				return fmt.Errorf("bench: A/A run %d of %s: %d failed operations", i, s.name, line.Failed)
			}
			for name, m := range line.Metrics {
				key := s.name + "/" + name
				sets[i%2][key] = append(sets[i%2][key], m.Value)
			}
			fmt.Printf("# A/A run %d/%d set %c %s done\n", i+1, 2*n, 'A'+rune(i%2), s.name)
		}
	}
	keys := make([]string, 0, len(sets[0]))
	for k := range sets[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-44s %14s %14s %14s | %14s %14s %14s | %8s %6s\n", "workload/metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "diff", "bound")
	bad := 0
	for _, k := range keys {
		a1, a2, a3 := quartiles(sets[0][k])
		b1, b2, b3 := quartiles(sets[1][k])
		diff := math.Abs(a2-b2) / math.Min(a2, b2)
		bound := bounds[k[strings.Index(k, "/")+1:]]
		verdict := ""
		if diff > bound {
			verdict = "  DIFFERS"
			bad++
		}
		fmt.Printf("%-44s %14.4f %14.4f %14.4f | %14.4f %14.4f %14.4f | %7.3f%% %5.1f%%%s\n", k, a1, a2, a3, b1, b2, b3, 100*diff, 100*bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("bench: A/A check failed: %d metric medians differ by more than their bound", bad)
	}
	return nil
}
