package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesTables holds BENCHMARK.json and the tables in this
// package to one set of names, units and directions.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q is outside the allowed alphabet", d.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	ws := workloads(fullSizes)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if g := spec.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table {%s %s}", i, g, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why breaks the format", w.name)
		}
	}
}

// TestToyRun runs every workload, untraced and traced, at toy size: no
// op may fail the check, and each run prints each of its metrics once
// and reports exactly the metrics BENCHMARK.json names for it.
func TestToyRun(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads(toySizes) {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := measure(&out, w, toySizes, 2, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Reps != 1 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d reps=%d %v", w.name, traced, res.Attempted, res.Failed, res.Reps, res.Violations)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported as %+v", w.name, traced, m.Name, got)
				}
				if n := strings.Count(out.String(), "\n  "+m.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", w.name, traced, m.Name, n)
				}
			}
			line, err := json.Marshal(res.summary())
			if err != nil {
				t.Fatal(err)
			}
			var summary map[string]json.RawMessage
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := summary[key]; !ok || len(summary) != 4 {
					t.Errorf("summary line %s lacks %q or has other keys", line, key)
				}
			}
		}
	}
}

// TestCompare judges a result file against itself and against a copy
// with one metric pushed past its bound.
func TestCompare(t *testing.T) {
	reps := func(v float64) []float64 { return []float64{v, v * 1.01, v * 1.02, v} }
	file := func(rtt float64) string {
		res := workloadResult{Name: "tcp-spread", Metrics: map[string]metricValue{
			"rtt_p99_us":        {Value: rtt, Unit: "us", Reps: reps(rtt)},
			"ops_per_s":         {Value: 2000, Unit: "1/s", Reps: []float64{1000, 2000, 2000, 3000}},
			"wire.frame_allocs": {Value: rtt / 100, Unit: "count"},
		}}
		b, err := json.Marshal(resultFile{Workloads: []workloadResult{res}})
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/r.json"
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	a, b := file(700), file(900)
	if err := compareFiles(&out, "../BENCHMARK.json", a, b); err == nil {
		t.Errorf("a worse, an unresolved and an unequal comparison passed:\n%s", out.String())
	}
	for _, want := range []string{"rtt_p99_us", "worse", "unresolved", "DIFFERS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	res := workloadResult{Name: "tcp-spread", Metrics: map[string]metricValue{"rtt_p99_us": {Value: 700, Reps: reps(700)}}}
	raw, _ := json.Marshal(resultFile{Workloads: []workloadResult{res}})
	same := t.TempDir() + "/same.json"
	if err := os.WriteFile(same, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&out, "../BENCHMARK.json", same, same); err != nil || !strings.Contains(out.String(), " ok") {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
}
