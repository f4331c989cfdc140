package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

func loadReport(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var rf reportFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &rf, nil
}

// series is one metric's values over the runs of one workload in one
// report file, with the seed of each run.
type series struct {
	values []float64
	seeds  []int64
}

func collect(rf *reportFile, workload string, trace bool, metric string) series {
	var s series
	for _, run := range rf.Runs {
		if run.Workload != workload || run.Trace != trace {
			continue
		}
		for _, m := range run.Metrics {
			if m.Name == metric && m.Applies {
				s.values = append(s.values, m.Value)
				s.seeds = append(s.seeds, run.Seed)
			}
		}
	}
	return s
}

// exactDiff compares the values run by run over the seeds both files
// have: an exact counter must repeat to the last digit for the same seed.
// It returns the number of seeds compared and a description of the first
// difference, if any.
func exactDiff(a, b series) (compared int, diff string) {
	for i, seed := range a.seeds {
		for j, seedB := range b.seeds {
			if seed != seedB {
				continue
			}
			compared++
			if a.values[i] != b.values[j] && diff == "" {
				diff = fmt.Sprintf("seed %d: %v vs %v", seed, a.values[i], b.values[j])
			}
		}
	}
	return compared, diff
}

// compareFiles prints, for every workload and metric, how report b stands
// against report a, and returns the exit code: 1 if an end-to-end metric
// got worse by more than its bound or an exact counter changed.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ra, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rb, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(ra.Runs) > 0 && len(rb.Runs) > 0 && ra.Runs[0].Host != rb.Runs[0].Host {
		fmt.Fprintf(stdout, "note: host fingerprints differ; wall-clock verdicts compare two hosts or commits\n  a: %+v\n  b: %+v\n", ra.Runs[0].Host, rb.Runs[0].Host)
	}
	exactNames := make(map[string]bool)
	for _, d := range slices.Concat(endToEndDefs, perLayerDefs) {
		if d.exact {
			exactNames[d.name] = true
		}
	}
	regressions, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		fmt.Fprintf(stdout, "%s\n", wl.Name)
		for _, trace := range []bool{false, true} {
			metrics := spec.EndToEnd
			if trace {
				metrics = spec.PerLayer
			}
			for _, sm := range metrics {
				a, b := collect(ra, wl.Name, trace, sm.Name), collect(rb, wl.Name, trace, sm.Name)
				if len(a.values) == 0 || len(b.values) == 0 {
					continue
				}
				ma, mb := median(a.values), median(b.values)
				row := fmt.Sprintf("  %-30s %14.6g -> %14.6g %-6s", sm.Name, ma, mb, sm.Unit)
				switch {
				case exactNames[sm.Name]:
					n, diff := exactDiff(a, b)
					switch {
					case diff != "":
						regressions++
						fmt.Fprintf(stdout, "%s CHANGED (exact counter; %s)\n", row, diff)
					case n == 0:
						fmt.Fprintf(stdout, "%s exact, no seed in common\n", row)
					default:
						fmt.Fprintf(stdout, "%s identical (exact, %d seeds)\n", row, n)
					}
				case trace:
					// Per-layer wall-clock metrics carry no bound.
					if ma != 0 {
						fmt.Fprintf(stdout, "%s %+.1f%%\n", row, 100*(mb-ma)/ma)
					}
				default:
					worse := (mb - ma) / ma
					if sm.Better == "higher" {
						worse = -worse
					}
					spread := max(quartileSpread(a.values), quartileSpread(b.values))
					verdict := fmt.Sprintf("%+.1f%% worse, bound %.1f%%, spread %.1f%% (n = %d, %d)",
						100*worse, 100*sm.Bound, 100*spread, len(a.values), len(b.values))
					switch {
					case spread > sm.Bound:
						unresolved++
						fmt.Fprintf(stdout, "%s UNRESOLVED %s\n", row, verdict)
					case worse > sm.Bound:
						regressions++
						fmt.Fprintf(stdout, "%s REGRESSION %s\n", row, verdict)
					default:
						fmt.Fprintf(stdout, "%s ok %s\n", row, verdict)
					}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%d regressions or changed exact counters, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
