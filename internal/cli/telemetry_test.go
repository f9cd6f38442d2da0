package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftss/internal/obs"
)

// open binds want on a fresh flag set, parses args and opens the
// session, returning what Open printed.
func open(t *testing.T, want Flags, args ...string) (*Telemetry, *bytes.Buffer, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tel := Bind(fs, want)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	var out bytes.Buffer
	return tel, &out, tel.Open(&out)
}

// bannerAddr extracts the address a "... on ADDR" banner line announced.
func bannerAddr(t *testing.T, out *bytes.Buffer, banner string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out.String(), banner)
	if !ok {
		t.Fatalf("no %q banner in %q", banner, out)
	}
	addr, _, _ := strings.Cut(rest, "\n")
	return addr
}

// TestBindDeclaresOnlyWhatWasAsked: each binary's subset accepts exactly
// its own flags — a binary that did not ask for -admin rejects -admin —
// with the defaults every binary had before the session existed.
func TestBindDeclaresOnlyWhatWasAsked(t *testing.T) {
	flags := []struct {
		name, sample string
		bits         Flags
	}{
		{"metrics", "m.txt", Metrics},
		{"metrics-interval", "50ms", MetricsInterval},
		{"events", "e.jsonl", Events | EventsAppend},
		{"admin", "127.0.0.1:0", Admin},
		{"pprof", "127.0.0.1:0", Pprof},
	}
	subsets := map[string]Flags{
		"none":    0,
		"exp":     Metrics | Events,
		"loadgen": Metrics | Pprof,
		"cluster": Admin | Pprof,
		"node":    Metrics | EventsAppend | Admin | Pprof,
		"store":   Metrics | MetricsInterval | EventsAppend | Admin | Pprof,
	}
	for name, want := range subsets {
		for _, f := range flags {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			Bind(fs, want)
			declared := want&f.bits != 0
			if got := fs.Lookup(f.name); (got != nil) != declared {
				t.Errorf("%s: -%s declared = %v, want %v", name, f.name, got != nil, declared)
			} else if got != nil && got.DefValue != "" && got.DefValue != "0s" {
				t.Errorf("%s: -%s default %q", name, f.name, got.DefValue)
			}
			if err := fs.Parse([]string{"-" + f.name, f.sample}); (err == nil) != declared {
				t.Errorf("%s: parse -%s: err = %v, declared = %v", name, f.name, err, declared)
			}
		}
	}
}

func TestMetricsIntervalNeedsMetrics(t *testing.T) {
	_, _, err := open(t, Metrics|MetricsInterval, "-metrics-interval", "50ms")
	if err == nil || !strings.Contains(err.Error(), "-metrics-interval needs -metrics") {
		t.Fatalf("err = %v", err)
	}
}

// TestDeltaSumEqualsExitSnapshot drives a registry that moves between
// ticks through a session: folding every streamed "# delta" block
// reproduces the exit snapshot byte-for-byte.
func TestDeltaSumEqualsExitSnapshot(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.txt")
	tel, _, err := open(t, Metrics|MetricsInterval, "-metrics", metrics, "-metrics-interval", "2ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	moved, still := reg.Counter("moved"), reg.Gauge("still")
	if err := tel.Serve("", reg.Snapshot, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		moved.Add(uint64(i))
		time.Sleep(time.Millisecond)
	}
	still.Set(0)
	if err := tel.Close(nil); err != nil {
		t.Fatal(err)
	}
	exit, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := os.ReadFile(metrics + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(deltas, []byte("# delta 2\n")) {
		t.Fatalf("fewer than two delta blocks:\n%s", deltas)
	}
	sum, err := obs.SnapshotSum(nil, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, exit) || !bytes.Equal(exit, reg.Snapshot()) {
		t.Fatalf("delta sum != exit snapshot:\n%s\nvs\n%s", sum, exit)
	}
}

// TestExitSnapshotWrittenWhenRunFails: Close hands the run's own error
// back and still writes the snapshot.
func TestExitSnapshotWrittenWhenRunFails(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.txt")
	tel, _, err := open(t, Metrics, "-metrics", metrics)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Counter("seen").Inc()
	if err := tel.Serve("", reg.Snapshot, nil); err != nil {
		t.Fatal(err)
	}
	runErr := errors.New("run failed")
	if got := tel.Close(runErr); got != runErr {
		t.Fatalf("Close = %v, want the run error", got)
	}
	if snap, err := os.ReadFile(metrics); err != nil || !bytes.Equal(snap, reg.Snapshot()) {
		t.Fatalf("snapshot %q, %v", snap, err)
	}
}

// TestEventsTeedToFileAndAdminTail: with -events and -admin the file and
// /events carry the same bytes.
func TestEventsTeedToFileAndAdminTail(t *testing.T) {
	events := filepath.Join(t.TempDir(), "e.jsonl")
	tel, out, err := open(t, Events|Admin, "-events", events, "-admin", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Serve("unit: ", obs.NewRegistry().Snapshot, nil); err != nil {
		t.Fatal(err)
	}
	addr := bannerAddr(t, out, "unit: admin plane on ")
	for i := 0; i < 5; i++ {
		tel.Sink().Emit(obs.Event{Kind: "tick", T: uint64(i), P: i, Detail: "teed"})
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	tailed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(nil); err != nil {
		t.Fatal(err)
	}
	filed, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(filed) == 0 || !bytes.Equal(filed, tailed) {
		t.Fatalf("file:\n%s\n/events:\n%s", filed, tailed)
	}
}

// TestEventsAppendVsTruncate: the per-binary constant decides what
// happens to a file a previous incarnation left behind.
func TestEventsAppendVsTruncate(t *testing.T) {
	for _, c := range []struct {
		want Flags
		keep bool
	}{{Events, false}, {EventsAppend, true}} {
		events := filepath.Join(t.TempDir(), "e.jsonl")
		if err := os.WriteFile(events, []byte("{\"ev\":\"old\"}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		tel, _, err := open(t, c.want, "-events", events)
		if err != nil {
			t.Fatal(err)
		}
		tel.Sink().Emit(obs.Event{Kind: "new", P: -1})
		if err := tel.Close(nil); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(events)
		if kept := bytes.HasPrefix(got, []byte(`{"ev":"old"}`)); kept != c.keep || !bytes.Contains(got, []byte(`"ev":"new"`)) {
			t.Errorf("flags %b: file = %q, old line kept = %v, want %v", c.want, got, kept, c.keep)
		}
	}
}

// TestPprofBindFailureIsAStartupError: a second session on a taken
// address fails in Open and prints no banner.
func TestPprofBindFailureIsAStartupError(t *testing.T) {
	first, out, err := open(t, Pprof, "-pprof", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close(nil)
	addr := bannerAddr(t, out, "pprof listening on ")
	if resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err != nil {
		t.Fatalf("pprof not served on the announced address: %v", err)
	} else {
		resp.Body.Close()
	}
	_, out2, err := open(t, Pprof, "-pprof", addr)
	if err == nil {
		t.Fatal("second bind on a taken address succeeded")
	}
	if out2.Len() != 0 {
		t.Fatalf("banner printed despite bind failure: %q", out2)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestCloseReportsEventStreamWriteError: the JSONL sink's sticky error
// is the session's close error — a truncated stream is not a clean exit.
func TestCloseReportsEventStreamWriteError(t *testing.T) {
	tel := &Telemetry{}
	tel.sink = obs.NewJSONL(&failAfter{n: 100})
	for i := 0; i < 50; i++ {
		tel.Sink().Emit(obs.Event{Kind: "poll", T: uint64(i), P: -1})
	}
	if err := tel.Close(nil); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the write error", err)
	}
}
