package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json. --compare takes from it the share by which
// each end-to-end metric may worsen.
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

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactTolerance is how far two readings of an exact count may differ:
// the runtime's own background allocations move a per-op malloc count
// in the fourth digit.
const exactTolerance = 0.002

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// resolution is how well one run pins a metric down: the run's
// repetitions are split into the odd and the even ones, each half is
// summarized as the whole run is, and the two are compared. A change
// smaller than this cannot be told from the run's own noise.
func resolution(m metricValue, d metricDef) float64 {
	if len(m.Reps) < 2 || m.Value == 0 {
		return 0
	}
	var odd, even []float64
	for i, v := range m.Reps {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return math.Abs(summarize(odd, d).Value-summarize(even, d).Value) / math.Abs(m.Value)
}

// compareFiles judges result file B against result file A, workload by
// workload. An end-to-end metric is worse when B's value is beyond A's
// by more than the metric's bound, and unresolved when either run's own
// resolution is coarser than the bound, so that the comparison could not
// have shown a change of that size. Per-layer counts marked exact must
// be equal.
func compareFiles(out io.Writer, specPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	bound := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	inB := make(map[string]workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	fmt.Fprintf(out, "A: %s %v\nB: %s %v\n", aPath, a.Provenance, bPath, b.Provenance)
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEndMetrics {
			ma, okA := wa.Metrics[d.name]
			mb, okB := wb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			change := (mb.Value - ma.Value) / math.Abs(ma.Value)
			worsening := change
			if !d.lower {
				worsening = -change
			}
			coarse := math.Max(resolution(ma, d), resolution(mb, d))
			verdict := "ok"
			switch {
			case coarse > bound[d.name]:
				verdict = "unresolved"
			case worsening > bound[d.name]:
				verdict = "worse"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(out, "%-14s %-18s A %12.4f  B %12.4f  %+6.1f%%  resolution %4.1f%%  bound %2.0f%%  %s\n",
				wa.Name, d.name, ma.Value, mb.Value, 100*change, 100*coarse, 100*bound[d.name], verdict)
		}
		for _, d := range perLayerMetrics {
			ma, okA := wa.Metrics[d.name]
			mb, okB := wb.Metrics[d.name]
			if !d.exact || !okA || !okB {
				continue
			}
			verdict := "equal"
			if math.Abs(ma.Value-mb.Value) > exactTolerance*math.Abs(ma.Value) {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(out, "%-14s %-26s A %14.4f  B %14.4f  exact: %s\n", wa.Name, d.name, ma.Value, mb.Value, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are not ok", bad)
	}
	return nil
}
