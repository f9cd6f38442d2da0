package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"ftss/internal/obs"
	"ftss/internal/pool"
)

// narrowE14 trims E14 to its two narrow widths for the duration of a
// worker-invariance test. The full sweep runs once in TestE14NScaling
// (and so in the CI race job, which runs this package without -short).
func narrowE14(t *testing.T) {
	full := e14Widths
	e14Widths = []int{16, 64}
	t.Cleanup(func() { e14Widths = full })
}

// TestAllDeterministicAcrossWorkers is the parallel runner's contract: every
// table All renders is byte-identical whether repetitions run sequentially
// or fanned across 8 workers. Each repetition derives all randomness from
// its own seed and rows merge in seed order, so the worker count must be
// unobservable in the output.
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	narrowE14(t)
	seq := tiny()
	seq.Workers = 1
	par := tiny()
	par.Workers = 8

	a := All(seq)
	b := All(par)
	if len(a) != len(b) {
		t.Fatalf("table count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ma, mb := a[i].Markdown(), b[i].Markdown()
		if ma != mb {
			t.Errorf("%s: Workers=1 and Workers=8 render different Markdown:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				a[i].ID, ma, mb)
		}
	}
}

// TestMetricsDeterministicAcrossWorkers extends the contract to the
// telemetry layer: the -metrics snapshot and the -events stream produced
// by an instrumented run must be byte-identical for Workers=1 and
// Workers=8. Instruments record post-merge on the caller's goroutine, so
// the worker count must be unobservable here too.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	narrowE14(t)
	run := func(workers int) (metrics, events []byte) {
		cfg := tiny()
		cfg.Workers = workers
		cfg.Metrics = obs.NewRegistry()
		var buf bytes.Buffer
		cfg.Events = obs.NewJSONL(&buf)
		E12ParameterSweep(cfg)
		E14NScaling(cfg)
		return cfg.Metrics.Snapshot(), buf.Bytes()
	}
	m1, e1 := run(1)
	m8, e8 := run(8)
	if !bytes.Equal(m1, m8) {
		t.Errorf("metrics differ across workers:\n--- Workers=1 ---\n%s\n--- Workers=8 ---\n%s", m1, m8)
	}
	if !bytes.Equal(e1, e8) {
		t.Errorf("events differ across workers:\n--- Workers=1 ---\n%s\n--- Workers=8 ---\n%s", e1, e8)
	}
	if len(m1) == 0 || len(e1) == 0 {
		t.Fatal("instrumented run recorded nothing; determinism check vacuous")
	}
	if got := cfgRepetitions(m1); got == 0 {
		t.Fatal("experiment.repetitions missing from snapshot")
	}
}

// cfgRepetitions extracts the experiment.repetitions value from a
// snapshot, 0 if absent.
func cfgRepetitions(snapshot []byte) int {
	var v int
	for _, line := range bytes.Split(snapshot, []byte("\n")) {
		if n, _ := fmt.Sscanf(string(line), "counter experiment.repetitions %d", &v); n == 1 {
			return v
		}
	}
	return 0
}

// TestRunIndexedOrderAndCoverage pins the pool mechanics: every index is
// evaluated exactly once and results land at their own index, for worker
// counts below, at, and above the item count.
func TestRunIndexedOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16, 100} {
		got := pool.Run(workers, 37, func(i int) string {
			return fmt.Sprintf("item-%d", i)
		})
		if len(got) != 37 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, s := range got {
			if want := fmt.Sprintf("item-%d", i); s != want {
				t.Errorf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

// TestRunSeedsSeedRange checks the seed derivation: BaseSeed+1 through
// BaseSeed+Seeds, in order.
func TestRunSeedsSeedRange(t *testing.T) {
	cfg := Config{Seeds: 5, BaseSeed: 100, Workers: 3}
	got := runSeeds(cfg, func(seed int64) int64 { return seed })
	want := []int64{101, 102, 103, 104, 105}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runSeeds order = %v, want %v", got, want)
		}
	}
}
