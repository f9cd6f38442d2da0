// Command bench is the repository's benchmark: the wall-clock cost of
// the store's real op path — client → TCP → wire → store.Server →
// store.Shard → sim/async → smr → core poll → reply — on four named
// workloads, with every reply checked from the client side.
//
//	bash bench/run.sh --workload tcp-spread --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out A.json
//	bash bench/run.sh --compare A.json B.json
//
// --trace 0 measures the end-to-end metrics and nothing else. --trace 1
// is the separate traced run: it times calls into each layer's public
// functions from this package's own files and reports the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. README.md defines every
// workload and metric.
//
//ftss:conc one goroutine per client connection; each writes only its own tcpClient and is joined before anything is read
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ftss/internal/obs"
)

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func cli(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed; op streams derive from (seed, client)")
	seconds := fs.Int("seconds", 20, "how long one workload measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	outFile := fs.String("out", "", "also write the results, with provenance and per-repetition values, to this file")
	spanDir := fs.String("spans", "", "with --trace 1, write each workload's benchmark spans as JSONL into this directory")
	compare := fs.Bool("compare", false, "compare two --out files: bench --compare A.json B.json")
	spec := fs.String("spec", "BENCHMARK.json", "with --compare, the file that holds each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare takes two result files")
		}
		return compareFiles(out, *spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}

	all := workloads(fullSizes)
	todo := all
	if *name != "all" {
		w, err := findWorkload(all, *name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	file := resultFile{Provenance: provenance(*seed, *seconds, *trace)}
	failed := 0
	for _, w := range todo {
		res, err := measure(out, w, fullSizes, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *spanDir != "" && res.spans != nil {
			if err := writeSpans(filepath.Join(*spanDir, w.name+".spans.jsonl"), res.spans); err != nil {
				return err
			}
		}
		file.Workloads = append(file.Workloads, res)
		failed += res.Failed
		line, err := json.Marshal(res.summary())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if *outFile != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed the correctness check", failed)
	}
	return nil
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Provenance map[string]any   `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

func provenance(seed int64, seconds, trace int) map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "clients": clientCount(),
		"go": runtime.Version(), "commit": commit,
	}
}

// metricValue is one reported metric — the best repetition's value, the
// quantile of all repetitions' samples or the median over the
// repetitions, as its metricDef says — with the median, the range and
// the per-repetition values beside it.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Reps   []float64 `json:"reps"`
}

func summarize(vs []float64, d metricDef) metricValue {
	med := median(vs)
	m := metricValue{Value: med, Unit: d.unit, Median: med, Min: slices.Min(vs), Max: slices.Max(vs), Reps: vs}
	if d.best {
		m.Value = best(vs, d.lower)
	}
	return m
}

type workloadResult struct {
	Name       string                 `json:"name"`
	OpsPerRep  int                    `json:"ops_per_rep"`
	Reps       int                    `json:"reps"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`

	spans []obs.Span
}

// summary is the line the benchmark's contract asks for.
func (r workloadResult) summary() any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms}
}

// samples collects each metric's value per repetition.
type samples map[string][]float64

func (s samples) add(ms map[string]float64) {
	for name, v := range ms {
		s[name] = append(s[name], v)
	}
}

// note folds one checked repetition into the result's totals.
func (r *workloadResult) note(rp *rep) {
	r.Attempted += rp.attempted
	r.Failed += rp.verdict.failed
	r.Violations = append(r.Violations, rp.verdict.reasons...)
}

// measure runs one workload: fixed-size repetitions on fresh stores until
// the time is used, each one checked, each after a short warm-up on a
// throwaway store. Every metric is summarized over its repetitions. The
// traced run spends part of the time on the probes, the replay and the
// program-traced repetition first; its repetitions yield the counts.
func measure(out io.Writer, w workload, sz sizes, seed int64, budget time.Duration, traced bool) (workloadResult, error) {
	res := workloadResult{Name: w.name, OpsPerRep: w.ops}
	warmup := roundOps
	if w.tcp {
		warmup = sz.warmup
	}
	began := time.Now()
	var tr *layerTrace
	if traced {
		if _, err := run(w, seed, warmup, false); err != nil {
			return res, err
		}
		var err error
		if tr, err = traceLayers(w, sz, seed, &res); err != nil {
			return res, err
		}
		res.spans = tr.spans
	}
	s := samples{}
	var rtts []int64 // every repetition's round trips, for the pooled quantile
	var inReps time.Duration
	// A repetition that would overrun the budget is not started, so the
	// measuring time stays inside --seconds whatever the machine's speed.
	for res.Reps == 0 || time.Since(began)+inReps/time.Duration(res.Reps) <= budget {
		// Set-up is all that precedes a repetition's first measured
		// request: the warm-up pass — a throwaway store built, served,
		// dialled and driven — and then the fresh store, its listener and
		// its connections.
		t0 := time.Now()
		if _, err := run(w, seed, warmup, false); err != nil {
			return res, err
		}
		warm := time.Since(t0)
		rp, err := run(w, seed, w.ops, false)
		if err != nil {
			return res, err
		}
		inReps += time.Since(t0)
		res.note(rp)
		res.Reps++
		rp.setup += warm
		rtts = append(rtts, rp.rtts...)
		s.add(rp.endToEnd())
		if traced {
			s.add(rp.layerCounts())
		}
	}
	slices.Sort(rtts)
	rttP50us := best(s["rtt_p50_us"], true)
	if traced {
		tr.derive(w, rttP50us, best(s["ops_per_s"], false))
		s.add(tr.metrics)
	}

	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	fmt.Fprintf(out, "%s seed=%d ops/rep=%d reps=%d attempted=%d failed=%d\n", w.name, seed, w.ops, res.Reps, res.Attempted, res.Failed)
	for _, d := range defs {
		m := summarize(s[d.name], d)
		if d.pooledP99 {
			m.Value = float64(quantile(rtts, 0.99)) / 1e3
		}
		res.Metrics[d.name] = m
		fmt.Fprintf(out, "  %-26s %14.4f %-6s (median %.4f min %.4f max %.4f over %d)\n", d.name, m.Value, m.Unit, m.Median, m.Min, m.Max, len(m.Reps))
	}
	if traced {
		printBudget(out, w, rttP50us, res.Metrics)
	} else {
		fmt.Fprintf(out, "  %-26s %14.4f %-6s (no bound: a per-layer metric, reported by --trace 1)\n", "rtt_p50_us", rttP50us, "us")
	}
	for _, why := range res.Violations {
		fmt.Fprintf(out, "  VIOLATION %s\n", why)
	}
	return res, nil
}
