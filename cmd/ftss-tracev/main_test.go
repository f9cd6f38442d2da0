package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftss/internal/obs"
	"ftss/internal/sim/async"
	"ftss/internal/store"
)

// storeTrace runs a traced store under corruption and returns its span
// JSONL — the real input shape the analyzer exists for.
func storeTrace(t *testing.T, workers int) []byte {
	t.Helper()
	st := store.New(store.Config{
		Shards: 4, Seed: 5, MaxBatch: 8, Trace: true,
		CorruptEvery: 60 * async.Millisecond,
	})
	// Rounds of 16 ops, each driven to completion, so the run lasts past
	// several 60 ms strikes and the polls that close them.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 128; i++ {
		key := string(rune('a' + rng.Intn(16)))
		st.Submit(store.Op{Key: key, Old: uint64(rng.Intn(3)), Val: int64(i)})
		if i%16 == 15 {
			if err := st.Drive(workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := st.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportByteStable pins the acceptance claim: the report is
// byte-identical for any -workers value and any collector arrival
// order (simulated by shuffling the JSONL lines).
func TestReportByteStable(t *testing.T) {
	trace := storeTrace(t, 1)
	trace8 := storeTrace(t, 8)
	if !bytes.Equal(trace, trace8) {
		t.Fatal("traces differ across worker counts before analysis")
	}

	render := func(in []byte) string {
		var out bytes.Buffer
		if err := run(nil, bytes.NewReader(in), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := render(trace)
	if !strings.Contains(want, "tracev: phase store.slot") ||
		!strings.Contains(want, "tracev: slow 1 op=") ||
		!strings.Contains(want, "tracev: containment shard=") {
		t.Fatalf("report missing sections:\n%s", want)
	}

	lines := strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		shuffled := strings.Join(lines, "\n") + "\n"
		if got := render([]byte(shuffled)); got != want {
			t.Fatalf("trial %d: shuffled input changed the report:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// TestReportMergesFiles: spans split across input files analyze the
// same as one file — the multi-node collection shape.
func TestReportMergesFiles(t *testing.T) {
	trace := storeTrace(t, 2)
	lines := strings.SplitAfter(string(trace), "\n")
	mid := len(lines) / 2
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(a, []byte(strings.Join(lines[:mid], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(strings.Join(lines[mid:], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var whole, split bytes.Buffer
	if err := run(nil, bytes.NewReader(trace), &whole); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{b, a}, nil, &split); err != nil {
		t.Fatal(err)
	}
	if whole.String() != split.String() {
		t.Fatalf("split files changed the report:\n%s\nvs\n%s", split.String(), whole.String())
	}
}

// TestReportCriticalPath checks the per-op reconstruction arithmetic on
// a hand-built trace: totals sum the three phases, exemplars order by
// total descending, and parents surface.
func TestReportCriticalPath(t *testing.T) {
	mk := func(id, parent obs.SpanID, phase string, start, end uint64) obs.Span {
		return obs.Span{ID: id, Parent: parent, Phase: phase, P: 0, Start: start, End: end}
	}
	spans := []obs.Span{
		mk(2, 0, "store.queue", 0, 10), mk(2, 0, "store.slot", 10, 20), mk(2, 0, "store.apply", 20, 25),
		mk(3, 7, "store.queue", 0, 5), mk(3, 7, "store.slot", 5, 100), mk(3, 7, "store.apply", 100, 101),
	}
	var in bytes.Buffer
	if err := obs.WriteSpans(&in, spans); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-top", "2"}, &in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"tracev: spans=6 ops=2 containment=0\n",
		"tracev: slow 1 op=0000000000000003 shard=000 total=101µs queue=5µs slot=95µs apply=1µs parent=0000000000000007\n",
		"tracev: slow 2 op=0000000000000002 shard=000 total=25µs queue=10µs slot=10µs apply=5µs\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
}
