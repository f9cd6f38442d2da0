package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
pkg: ftss
BenchmarkWavefrontStep-4      	     100	      5503 ns/op	    3472 B/op	      10 allocs/op
BenchmarkSyncEngineRound      	     100	    117957 ns/op	   80848 B/op	     413 allocs/op
BenchmarkAsyncEngineEvent     	     100	       498.0 ns/op	     281 B/op	       4 allocs/op
BenchmarkStoreShards/16-2     	     100	   1406012 ns/op	    140861 sim-ns/op	 5541022 B/op	   52209 allocs/op
PASS
`

func TestRecordParsesBenchOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-record", in, "-out", out}, &buf); err != nil {
		t.Fatalf("record: %v", err)
	}
	got, err := loadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	ws, ok := got["BenchmarkWavefrontStep"]
	if !ok {
		t.Fatalf("missing BenchmarkWavefrontStep in %v", got)
	}
	if ws.NsOp != 5503 || ws.BytesOp != 3472 || ws.AllocsOp != 10 {
		t.Errorf("BenchmarkWavefrontStep = %+v", ws)
	}
	if got["BenchmarkAsyncEngineEvent"].NsOp != 498 {
		t.Errorf("fractional ns/op not parsed: %+v", got["BenchmarkAsyncEngineEvent"])
	}
	if ss := got["BenchmarkStoreShards/16"]; ss.NsOp != 1406012 || ss.BytesOp != 5541022 || ss.AllocsOp != 52209 {
		t.Errorf("custom metric between ns/op and B/op broke the parse: %+v", ss)
	}
}

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComparePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`{"BenchmarkA": {"ns_op": 100, "bytes_op": 10, "allocs_op": 100}}`)
	cur := writeJSON(t, dir, "cur.json",
		`{"BenchmarkA": {"ns_op": 500, "bytes_op": 10, "allocs_op": 105}}`)
	var buf bytes.Buffer
	// allocs +5% within the 10% gate; ns/op +400% ignored with the
	// timing gate disabled (default).
	if err := run([]string{"-baseline", base, "-current", cur}, &buf); err != nil {
		t.Fatalf("compare should pass: %v\n%s", err, buf.String())
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`{"BenchmarkA": {"ns_op": 100, "bytes_op": 10, "allocs_op": 100}}`)
	cur := writeJSON(t, dir, "cur.json",
		`{"BenchmarkA": {"ns_op": 100, "bytes_op": 10, "allocs_op": 120}}`)
	var buf bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", cur}, &buf); err == nil {
		t.Fatalf("allocs +20%% should fail the 10%% gate:\n%s", buf.String())
	}
	// Informational mode reports the same regression but exits clean.
	buf.Reset()
	if err := run([]string{"-baseline", base, "-current", cur, "-informational"}, &buf); err != nil {
		t.Fatalf("informational mode must not fail: %v", err)
	}
	if !strings.Contains(buf.String(), "regression") {
		t.Errorf("informational output should still name the regression:\n%s", buf.String())
	}
}

func TestCompareGeomeanSummary(t *testing.T) {
	dir := t.TempDir()
	// ns ratios 0.5 and 2.0 → geomean exactly 1.0; alloc ratios 2.0 and
	// 2.0 → geomean 2.0. BenchmarkC has zero allocs on both sides, so it
	// contributes to the ns geomean (ratio 1.0) but not the alloc one.
	base := writeJSON(t, dir, "base.json",
		`{"BenchmarkA": {"ns_op": 100, "bytes_op": 0, "allocs_op": 10},
		  "BenchmarkB": {"ns_op": 400, "bytes_op": 0, "allocs_op": 50},
		  "BenchmarkC": {"ns_op": 70, "bytes_op": 0, "allocs_op": 0}}`)
	cur := writeJSON(t, dir, "cur.json",
		`{"BenchmarkA": {"ns_op": 50, "bytes_op": 0, "allocs_op": 20},
		  "BenchmarkB": {"ns_op": 800, "bytes_op": 0, "allocs_op": 100},
		  "BenchmarkC": {"ns_op": 70, "bytes_op": 0, "allocs_op": 0}}`)
	var buf bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", cur, "-informational"}, &buf); err != nil {
		t.Fatal(err)
	}
	want := "benchbase: geomean vs baseline: ns/op ×1.000, allocs/op ×2.000 (over 3 shared benchmarks)"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("missing geomean summary %q in:\n%s", want, buf.String())
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		`{"BenchmarkA": {"ns_op": 100, "bytes_op": 10, "allocs_op": 100}}`)
	cur := writeJSON(t, dir, "cur.json",
		`{"BenchmarkB": {"ns_op": 100, "bytes_op": 10, "allocs_op": 100}}`)
	var buf bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", cur}, &buf); err == nil {
		t.Fatalf("benchmark missing from current run should fail:\n%s", buf.String())
	}
}
