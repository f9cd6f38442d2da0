// Command benchbase turns `go test -bench` output into a committed JSON
// baseline and gates regressions against it.
//
// Record mode parses benchmark text (a file or stdin) and writes one JSON
// object per benchmark — ns/op, B/op, allocs/op — with stable key order:
//
//	go test -bench . -benchmem -benchtime=100x -count=1 . > bench.txt
//	benchbase -record bench.txt -out BENCH_PR2.json
//
// Compare mode diffs a current JSON against a committed baseline:
//
//	benchbase -baseline BENCH_BASELINE.json -current BENCH_PR2.json
//
// allocs/op is the binding gate (deterministic for this suite): a
// benchmark fails if its allocs/op exceeds baseline by more than
// -alloc-tol (fraction, default 0.10). ns/op is reported but only gated
// by -ns-tol when it is set ≥ 0; timing on shared runners is too noisy to
// gate by default. -informational prints the full comparison and always
// exits 0, for CI jobs that want the diff as an artifact, not a verdict.
// Every comparison ends with a geometric-mean ratio line over the shared
// benchmarks so net speedups or regressions read at a glance in CI logs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark's recorded metrics.
type Result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchbase:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchbase", flag.ContinueOnError)
	record := fs.String("record", "", "record mode: parse this `go test -bench` output file (\"-\" = stdin)")
	out := fs.String("out", "", "record mode: JSON output path (default stdout)")
	baseline := fs.String("baseline", "", "compare mode: committed baseline JSON")
	current := fs.String("current", "", "compare mode: freshly recorded JSON")
	allocTol := fs.Float64("alloc-tol", 0.10, "allowed fractional allocs/op increase over baseline")
	nsTol := fs.Float64("ns-tol", -1, "allowed fractional ns/op increase; negative disables the timing gate")
	informational := fs.Bool("informational", false, "print the comparison but always exit 0")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *record != "":
		return doRecord(*record, *out, w)
	case *baseline != "" && *current != "":
		return doCompare(*baseline, *current, *allocTol, *nsTol, *informational, w)
	default:
		return fmt.Errorf("need either -record FILE or -baseline FILE -current FILE")
	}
}

// benchLine matches e.g.
//
//	BenchmarkWavefrontStep-4   100   5503 ns/op   3472 B/op   10 allocs/op
//
// Custom metrics (b.ReportMetric) print between ns/op and B/op and are
// skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parseBench(r io.Reader) (map[string]Result, error) {
	results := map[string]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var res Result
		res.NsOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			res.BytesOp, _ = strconv.ParseInt(m[3], 10, 64)
		}
		if m[4] != "" {
			res.AllocsOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		results[m[1]] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found (expected `go test -bench -benchmem` output)")
	}
	return results, nil
}

func doRecord(in, out string, w io.Writer) error {
	var r io.Reader
	if in == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := parseBench(r)
	if err != nil {
		return err
	}
	// Marshal via sorted keys so the committed file diffs cleanly.
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, name := range names {
		entry, err := json.Marshal(results[name])
		if err != nil {
			return err
		}
		buf = append(buf, fmt.Sprintf("  %q: %s", name, entry)...)
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)

	if out == "" {
		_, err := w.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchbase: recorded %d benchmarks to %s\n", len(results), out)
	return nil
}

func loadJSON(path string) (map[string]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Result
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func doCompare(basePath, curPath string, allocTol, nsTol float64, informational bool, w io.Writer) error {
	base, err := loadJSON(basePath)
	if err != nil {
		return err
	}
	cur, err := loadJSON(curPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-36s %14s %14s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "Δns", "Δallocs")
	var failures []string
	var nsRatios, allocRatios ratioAcc
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14s %9s %9s\n", name, "-", "-", "gone", "gone")
			failures = append(failures, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		nsRatios.add(c.NsOp, b.NsOp)
		allocRatios.add(float64(c.AllocsOp), float64(b.AllocsOp))
		dns := frac(c.NsOp-b.NsOp, b.NsOp)
		dal := frac(float64(c.AllocsOp-b.AllocsOp), float64(b.AllocsOp))
		fmt.Fprintf(w, "%-36s %14.0f %14d %8.1f%% %8.1f%%\n", name, c.NsOp, c.AllocsOp, dns*100, dal*100)
		if dal > allocTol {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d vs baseline %d (+%.1f%% > %.0f%% tolerance)",
				name, c.AllocsOp, b.AllocsOp, dal*100, allocTol*100))
		}
		if nsTol >= 0 && dns > nsTol {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (+%.1f%% > %.0f%% tolerance)",
				name, c.NsOp, b.NsOp, dns*100, nsTol*100))
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "%-36s (new, not in baseline)\n", name)
		}
	}
	// One-glance summary: the geometric mean of current/baseline ratios
	// across the shared benchmarks, <1 = the suite got faster/leaner.
	if m, n, ok := nsRatios.mean(); ok {
		line := fmt.Sprintf("benchbase: geomean vs baseline: ns/op ×%.3f", m)
		if am, _, ok := allocRatios.mean(); ok {
			line += fmt.Sprintf(", allocs/op ×%.3f", am)
		}
		fmt.Fprintf(w, "\n%s (over %d shared benchmarks)\n", line, n)
	}
	if len(failures) == 0 {
		fmt.Fprintf(w, "\nbenchbase: %d benchmarks within tolerance\n", len(names))
		return nil
	}
	fmt.Fprintf(w, "\nbenchbase: %d regression(s):\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(w, "  %s\n", f)
	}
	if informational {
		fmt.Fprintln(w, "benchbase: informational mode, not failing")
		return nil
	}
	return fmt.Errorf("%d benchmark regression(s)", len(failures))
}

// ratioAcc accumulates current/baseline ratios for a geometric mean,
// computed in log space. Pairs without a positive value on both sides
// are skipped — a ratio needs both, and a zero-alloc benchmark carries
// no signal for this summary.
type ratioAcc struct {
	logSum float64
	n      int
}

func (a *ratioAcc) add(cur, base float64) {
	if cur > 0 && base > 0 {
		a.logSum += math.Log(cur / base)
		a.n++
	}
}

func (a ratioAcc) mean() (float64, int, bool) {
	if a.n == 0 {
		return 0, 0, false
	}
	return math.Exp(a.logSum / float64(a.n)), a.n, true
}

// frac is delta/base, treating a zero base as "no change" unless the
// delta is positive (a regression from zero is infinite).
func frac(delta, base float64) float64 {
	if base == 0 {
		if delta > 0 {
			return 1e9
		}
		return 0
	}
	return delta / base
}
