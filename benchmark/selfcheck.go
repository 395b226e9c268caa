package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// -selfcheck N is the acceptance rule of this benchmark applied to itself:
// every workload on N seeds, twice, on the same code. A metric passes when
// its spread — the interquartile distance of the N values over their median
// — stays within its bound in both sets (setup_s is exempt from the spread
// rule), and the second set's median is not worse than the first's by more
// than the bound. The same table calibrates bounds, rates and limits.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func (h *harness) selfcheck(n int, seed uint64, seconds float64, toy bool) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("-selfcheck needs at least 2 seeds, got %d", n)
	}
	bf, err := readBenchmarkFile(h.root)
	if err != nil {
		return 0, err
	}
	ws := workloads(toy)
	// values[set][workload][metric] = the n per-seed values
	var values [2]map[string]map[string][]float64
	failedOps := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range ws {
			values[set][w.Name] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				s := seed + uint64(set*n+i)
				res, err := h.measure(w, s, seconds, false)
				if err != nil {
					return 0, fmt.Errorf("%s seed %d: %w", w.Name, s, err)
				}
				failedOps += res.Failed
				for name, mv := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck set %d %s seed %d: failed %d %v\n", set+1, w.Name, s, res.Failed, res.Problems)
			}
		}
	}
	breaches := 0
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "drift", "bound", "verdict")
	for _, w := range ws {
		for _, m := range bf.EndToEnd {
			var med, spread [2]float64
			for set := range values {
				q1, q2, q3 := quartiles(values[set][w.Name][m.Name])
				med[set], spread[set] = q2, (q3-q1)/q2
			}
			drift := (med[1] - med[0]) / med[0] // > 0: the second set is worse
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if m.Name != "setup_s" && max(spread[0], spread[1]) > m.Bound {
				verdict = "SPREAD"
			}
			if drift > m.Bound {
				verdict = "DRIFT"
			}
			if verdict != "ok" {
				breaches++
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, med[0], med[1], 100*spread[0], 100*spread[1], 100*drift, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("failed operations: %d, breaches: %d\n", failedOps, breaches)
	if breaches > 0 || failedOps > 0 {
		return 1, nil
	}
	return 0, nil
}
