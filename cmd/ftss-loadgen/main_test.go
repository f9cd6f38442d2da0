package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftss/internal/obs"
	"ftss/internal/store"
)

// startStore serves a small sharded store on a loopback port for the
// loadgen to hit.
func startStore(t *testing.T, shards int, seed int64) (addr string, st *store.Store, shutdown func()) {
	t.Helper()
	st = store.New(store.Config{Shards: shards, Seed: seed, MaxBatch: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- store.NewServer(st).Serve(ln, stop) }()
	return ln.Addr().String(), st, func() {
		close(stop)
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func TestLoadgenAgainstStore(t *testing.T) {
	addr, st, shutdown := startStore(t, 4, 31)
	metrics := filepath.Join(t.TempDir(), "loadgen.txt")

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-clients", "3", "-ops", "30", "-keys", "8",
		"-skew", "1.2", "-seed", "5", "-metrics", metrics,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	shutdown()

	got := out.String()
	if !strings.Contains(got, "ops=90 ") {
		t.Fatalf("expected 90 ops in report:\n%s", got)
	}
	if !strings.Contains(got, "errors=0") {
		t.Fatalf("expected error-free run:\n%s", got)
	}
	if !strings.Contains(got, "latency p50=") || !strings.Contains(got, "p99=") {
		t.Fatalf("missing quantile line:\n%s", got)
	}

	// The server saw exactly the ops the loadgen sent, and its own CAS
	// accounting matches the loadgen's view.
	var rep bytes.Buffer
	if err := st.Report(&rep); err != nil {
		t.Fatalf("store verdicts after load: %v", err)
	}
	if !strings.Contains(rep.String(), "ops=90 applied=90") {
		t.Fatalf("server saw different totals:\n%s", rep.String())
	}

	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "loadgen.latency_us") {
		t.Fatalf("metrics snapshot missing histogram:\n%s", snap)
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -addr accepted")
	}
	if err := run([]string{"-addr", "x", "-clients", "0"}, &out); err == nil {
		t.Error("zero clients accepted")
	}
}

// TestPprofTakenPortFailsStartup: -pprof on an address already in use is
// a start-up error with no "listening" banner, not a false banner and a
// stderr line mid-run.
func TestPprofTakenPortFailsStartup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out bytes.Buffer
	err = run([]string{"-addr", "127.0.0.1:1", "-pprof", ln.Addr().String()}, &out)
	if err == nil || !strings.Contains(err.Error(), "pprof") {
		t.Errorf("run = %v, want the pprof bind error", err)
	}
	if strings.Contains(out.String(), "pprof listening") {
		t.Errorf("banner printed for a listener that never bound:\n%s", out.String())
	}
}

// TestLoadgenTraceStitchesToServer runs a traced loadgen against a
// traced store: the client trace file holds one client.rtt span per op
// with zero collisions, and every server-side op span's parent is a
// client span — the cross-process causal link ftss-tracev consumes.
func TestLoadgenTraceStitchesToServer(t *testing.T) {
	st := store.New(store.Config{Shards: 2, Seed: 31, MaxBatch: 8, Trace: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- store.NewServer(st).Serve(ln, stop) }()

	traceF := filepath.Join(t.TempDir(), "client.jsonl")
	var out bytes.Buffer
	if err := run([]string{
		"-addr", ln.Addr().String(), "-clients", "2", "-ops", "15",
		"-keys", "8", "-seed", "5", "-trace", traceF,
	}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !strings.Contains(out.String(), "trace 30 spans, 0 collisions") {
		t.Fatalf("trace summary missing:\n%s", out.String())
	}

	tf, err := os.Open(traceF)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	clientSpans, err := obs.ParseSpans(tf)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[obs.SpanID]bool, len(clientSpans))
	for _, sp := range clientSpans {
		if sp.Phase != "client.rtt" {
			t.Fatalf("unexpected client phase %q", sp.Phase)
		}
		ids[sp.ID] = true
	}
	if len(ids) != 30 {
		t.Fatalf("distinct client spans = %d, want 30", len(ids))
	}
	for _, sp := range st.TraceSpans() {
		if !ids[sp.Parent] {
			t.Fatalf("server span %v (%s) has no client parent (parent=%v)", sp.ID, sp.Phase, sp.Parent)
		}
	}
}
