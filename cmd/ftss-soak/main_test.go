package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ftss/internal/obs"
)

// TestShortSoakPasses runs a compressed soak — three episodes cover the
// acceptance-critical fault classes (partition, link chaos,
// crash-restart from corrupted state) — and requires the Definition 2.4
// verdict plus every quiet-window check to pass.
func TestShortSoakPasses(t *testing.T) {
	var out bytes.Buffer
	// A slower tick and roomier quiet windows keep the run honest under
	// the race detector's instrumentation slowdown.
	err := run([]string{
		"-seed", "3", "-n", "5", "-episodes", "3",
		"-episode-len", "80ms", "-quiet-len", "400ms", "-tick", "1ms",
	}, &out)
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"effective seed 3",
		"partition", "link-chaos", "crash-restart",
		"SATISFIED",
		"soak passed",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("soak output missing %q:\n%s", want, out.String())
		}
	}
}

// TestScheduleReproducibleFromSeed pins the soak's reproducibility
// contract: the fault schedule is a pure function of the seed.
func TestScheduleReproducibleFromSeed(t *testing.T) {
	mk := func(seed int64) string {
		return buildPlan(seed, 5, 5, 150*time.Millisecond, 350*time.Millisecond).String()
	}
	if mk(42) != mk(42) {
		t.Error("same seed produced different fault schedules")
	}
	if mk(42) == mk(43) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestSameSeedSameVerdict: two soaks with the same -seed stage the same
// plan and reach the same verdict. Wall-clock timestamps in the report
// may differ, but the seed-derived content — effective seed, episode
// schedule, pass/fail — must match.
func TestSameSeedSameVerdict(t *testing.T) {
	soakOnce := func() (error, string) {
		var out bytes.Buffer
		err := run([]string{
			"-seed", "7", "-n", "5", "-episodes", "2",
			"-episode-len", "60ms", "-quiet-len", "350ms", "-tick", "1ms",
		}, &out)
		return err, out.String()
	}
	err1, out1 := soakOnce()
	err2, out2 := soakOnce()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("same seed, different verdicts: %v vs %v\n--- run 1 ---\n%s--- run 2 ---\n%s",
			err1, err2, out1, out2)
	}
	// The plan header is seed-derived and timestamp-free: both reports
	// must open identically through the full schedule.
	plan := buildPlan(7, 5, 2, 60*time.Millisecond, 350*time.Millisecond).String()
	for i, out := range []string{out1, out2} {
		if !strings.Contains(out, plan) {
			t.Errorf("run %d report missing the seed-derived plan:\n%s", i+1, out)
		}
	}
}

// TestMultiRunFansOutSeeds: -runs R stages R independent soaks on
// consecutive seeds through soakMany (internal/pool), merges reports in seed
// order, and summarizes. -workers 1 keeps the live clusters' timing
// honest under the race detector on small machines; the merged report
// is byte-identical for any worker count.
func TestMultiRunFansOutSeeds(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "3", "-n", "5", "-episodes", "2", "-runs", "2", "-workers", "1",
		"-episode-len", "60ms", "-quiet-len", "600ms", "-tick", "1ms",
	}, &out)
	if err != nil {
		t.Fatalf("multi-run soak failed: %v\n%s", err, out.String())
	}
	s := out.String()
	i3 := strings.Index(s, "effective seed 3")
	i4 := strings.Index(s, "effective seed 4")
	if i3 < 0 || i4 < 0 || i3 > i4 {
		t.Errorf("reports missing or out of seed order (seed3@%d, seed4@%d):\n%s", i3, i4, s)
	}
	if !strings.Contains(s, "all 2 soak runs passed (seeds 3..4)") {
		t.Errorf("missing multi-run summary:\n%s", s)
	}
}

// TestRejectsTinyCluster: the harness refuses configurations with no
// crash-tolerant majority.
func TestRejectsTinyCluster(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "2"}, &out); err == nil {
		t.Error("n=2 should be rejected")
	}
}

// TestMetricsDeltaSumMatchesExit pins the -metrics-interval contract:
// folding every "# delta" block the soak streamed reproduces the exit
// snapshot byte-for-byte.
func TestMetricsDeltaSumMatchesExit(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	if err := run([]string{
		"-seed", "3", "-n", "5", "-episodes", "2",
		"-episode-len", "60ms", "-quiet-len", "350ms", "-tick", "1ms",
		"-metrics", metrics, "-metrics-interval", "50ms",
	}, &out); err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}
	exit, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := os.ReadFile(metrics + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(deltas), "# delta 1\n") {
		t.Fatalf("no delta blocks streamed:\n%s", deltas)
	}
	sum, err := obs.SnapshotSum(nil, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, exit) {
		t.Fatalf("delta sum != exit snapshot:\n%s\nvs\n%s", sum, exit)
	}
}

// TestMetricsIntervalNeedsMetrics: the delta stream has nowhere to go
// without -metrics.
func TestMetricsIntervalNeedsMetrics(t *testing.T) {
	if err := run([]string{"-metrics-interval", "50ms"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-metrics-interval without -metrics accepted")
	}
}

// TestMultiRunHealthIsPerRun: concurrent -runs count into their own
// registries, so each run's health line reports that run alone, and the
// exit snapshot still aggregates them: its cons.sent is the sum of the
// runs' health-line values.
func TestMultiRunHealthIsPerRun(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	var out bytes.Buffer
	err := run([]string{
		"-seed", "5", "-n", "5", "-episodes", "1", "-runs", "2", "-workers", "2",
		"-episode-len", "60ms", "-quiet-len", "400ms", "-tick", "1ms",
		"-metrics", metrics,
	}, &out)
	if err != nil {
		// A quiet window missed under load is not what this test pins; the
		// health lines and the snapshot are written either way.
		t.Logf("soak: %v", err)
	}
	var sum uint64
	lines := regexp.MustCompile(`consensus health: sent=(\d+) `).FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 2 {
		t.Fatalf("%d consensus health lines, want 2:\n%s", len(lines), out.String())
	}
	for _, m := range lines {
		n, _ := strconv.ParseUint(m[1], 10, 64)
		if n == 0 {
			t.Fatalf("a run reported no traffic:\n%s", out.String())
		}
		sum += n
	}
	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	want := "counter cons.sent " + strconv.FormatUint(sum, 10) + "\n"
	if !strings.Contains(string(snap), want) {
		t.Errorf("snapshot lacks %q (the runs' sum):\n%s", want, snap)
	}
}
