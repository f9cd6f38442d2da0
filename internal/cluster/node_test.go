package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ftss/internal/cli"
	"ftss/internal/proc"
)

// freeAddrs reserves n loopback ports by listening and closing. The tiny
// race window between close and the node's own bind is acceptable in a
// test against 127.0.0.1.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// runNode runs one node the way ftss-node's main does: a telemetry
// session bound to the node's flag subset, opened over args, handed to
// RunNode, and closed over its result.
func runNode(cfg NodeConfig, stop <-chan struct{}, args ...string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	tel := cli.Bind(fs, cli.Metrics|cli.EventsAppend|cli.Admin)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Open(io.Discard); err != nil {
		return err
	}
	return tel.Close(RunNode(cfg, tel, stop, io.Discard))
}

// TestThreeNodeLoopbackRun boots three real nodes — separate transports,
// separate runtimes, loopback TCP between them — with no staged chaos,
// and checks the cluster decides, the event streams parse, and the
// reassembled trace passes Definition 2.4 with a measured budget.
func TestThreeNodeLoopbackRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real loopback cluster")
	}
	const (
		n         = 3
		seed      = int64(11)
		quiet     = 600 * time.Millisecond
		pollEvery = 20 * time.Millisecond
	)
	addrs := freeAddrs(t, n)
	peers := func(self proc.ID) map[proc.ID]string {
		m := make(map[proc.ID]string)
		for p := proc.ID(0); p < n; p++ {
			if p != self {
				m[p] = addrs[p]
			}
		}
		return m
	}

	streams := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		streams[i] = filepath.Join(t.TempDir(), "events.jsonl")
		cfg := NodeConfig{
			ID: proc.ID(i), N: n, Seed: seed,
			Listen: addrs[i], Peers: peers(proc.ID(i)),
			QuietLen:  quiet, // no episodes: horizon = lead = quiet
			PollEvery: pollEvery,
		}
		wg.Add(1)
		go func(i int, cfg NodeConfig) {
			defer wg.Done()
			errs[i] = runNode(cfg, nil, "-events", streams[i])
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	var all []PollRecord
	for i, path := range streams {
		stream, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ParsePolls(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("node %d stream: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("node %d emitted no poll records", i)
		}
		final := recs[len(recs)-1]
		if !final.Cell.OK {
			t.Errorf("node %d never decided: final poll %+v", i, final)
		}
		all = append(all, recs...)
	}

	// Every node's final register must agree.
	finals := make(map[proc.ID]PollRecord)
	for _, r := range all {
		if prev, ok := finals[r.Node]; !ok || r.Index > prev.Index {
			finals[r.Node] = r
		}
	}
	var want fmt.Stringer
	for _, r := range finals {
		if want == nil {
			want = r.Cell
		} else if r.Cell.String() != want.String() {
			t.Fatalf("final registers disagree: %v vs %v", r.Cell, want)
		}
	}

	plan := NodeConfig{N: n, Seed: seed, QuietLen: quiet}.Plan()
	rec := Reassemble(plan, pollEvery, all)
	budget := MeasuredStabilization(rec)
	if budget < 0 {
		t.Fatalf("reassembled trace never satisfies Definition 2.4 (polls=%d)", rec.Polls())
	}
	t.Logf("measured stabilization: %d polls of %d", budget, rec.Polls())
}

// TestRunNodeGracefulStop: a stop signal mid-run ends the poll loop
// early, and the node still writes its final snapshot and node_done.
func TestRunNodeGracefulStop(t *testing.T) {
	addrs := freeAddrs(t, 3)
	events := filepath.Join(t.TempDir(), "events.jsonl")
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runNode(NodeConfig{
			ID: 0, N: 3, Seed: 3,
			Listen: addrs[0],
			Peers:  map[proc.ID]string{1: addrs[1], 2: addrs[2]},
			// A long quiet horizon the stop must cut short.
			QuietLen:  time.Hour,
			PollEvery: 5 * time.Millisecond,
		}, stop, "-events", events, "-metrics", metrics)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node did not stop within 5s of the signal")
	}
	out, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"ev":"node_done"`)) {
		t.Errorf("no node_done event in stream:\n%s", out)
	}
	if !bytes.Contains(out, []byte(`"stopped":1`)) {
		t.Errorf("node_done does not record the early stop:\n%s", out)
	}
	if snap, err := os.ReadFile(metrics); err != nil || len(snap) == 0 {
		t.Errorf("no final metrics snapshot written (%v)", err)
	}
}

// TestNodeAdminPlane: a node run with -admin serves live /metrics (the
// runtime's and the transport's counters), flips /healthz to 200 once
// its process decides, and tails the event stream on /events — all
// scraped mid-run, not post-mortem.
func TestNodeAdminPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real loopback cluster")
	}
	const (
		n         = 3
		seed      = int64(11)
		quiet     = 1500 * time.Millisecond
		pollEvery = 20 * time.Millisecond
	)
	addrs := freeAddrs(t, n)
	adminAddr := freeAddrs(t, 1)[0]

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			ID: proc.ID(i), N: n, Seed: seed,
			Listen: addrs[i], Peers: map[proc.ID]string{},
			QuietLen:  quiet,
			PollEvery: pollEvery,
		}
		for p := proc.ID(0); p < n; p++ {
			if p != cfg.ID {
				cfg.Peers[p] = addrs[p]
			}
		}
		var args []string
		if i == 0 {
			args = []string{"-admin", adminAddr}
		}
		wg.Add(1)
		go func(i int, cfg NodeConfig) {
			defer wg.Done()
			errs[i] = runNode(cfg, nil, args...)
		}(i, cfg)
	}

	get := func(path string) (int, []byte, error) {
		resp, err := http.Get("http://" + adminAddr + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	// The plane comes up with the node; the node is healthy only once
	// its hosted process decides. Poll until both hold or the horizon
	// passes.
	deadline := time.Now().Add(quiet)
	var healthy bool
	for time.Now().Before(deadline) {
		code, body, err := get("/healthz")
		if err == nil && code == 200 {
			if !bytes.Contains(body, []byte("decided ")) {
				t.Fatalf("healthy body lacks the decision line: %q", body)
			}
			healthy = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !healthy {
		t.Fatal("/healthz never reached 200 before the horizon")
	}
	if code, body, err := get("/metrics"); err != nil || code != 200 ||
		!bytes.Contains(body, []byte("counter node.sent")) ||
		!bytes.Contains(body, []byte("counter wire.frames_sent")) {
		t.Fatalf("/metrics = %d %v %q", code, err, body)
	}
	if code, body, err := get("/events"); err != nil || code != 200 ||
		!bytes.Contains(body, []byte(`"ev":"node_poll"`)) {
		t.Fatalf("/events = %d %v %q", code, err, body)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

func TestRunNodeValidation(t *testing.T) {
	if err := runNode(NodeConfig{ID: 0, N: 2}, nil); err == nil {
		t.Error("n=2 accepted")
	}
	if err := runNode(NodeConfig{ID: 5, N: 3}, nil); err == nil {
		t.Error("out-of-range id accepted")
	}
}
