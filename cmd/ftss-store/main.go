// Command ftss-store serves the sharded CAS key-value store over TCP:
// N completely independent Π⁺ consensus groups (internal/store) behind
// the wire CASRequest/CASReply framing, one shard per key-space slice
// under the deterministic FNV-1a router. Connections are closed-loop —
// one op in flight per connection, replies in order — and each op is
// driven to commitment on its shard's private discrete-event engine
// before the reply frame leaves.
//
// With -corrupt-every the server periodically corrupts one seeded-
// random replica per shard (the §2.1 systemic-failure model) while it
// serves, and every shard's poll trace runs through the incremental
// Definition 2.4 checker. On shutdown (SIGINT/SIGTERM) the server
// prints the store report — totals, latency quantiles, per-shard
// verdict lines — and exits non-zero if any shard's verdict failed,
// which is what the CI soak smoke gates on.
//
// Usage:
//
//	ftss-store [-listen 127.0.0.1:7400] [-shards 16] [-replicas 3]
//	           [-seed 1] [-max-batch 64] [-pipeline 2]
//	           [-corrupt-every 0] [-metrics FILE] [-metrics-interval 0]
//	           [-trace FILE] [-events FILE] [-admin ADDR] [-pprof ADDR]
//
// -trace enables causal op tracing (deterministic span IDs, one
// queue/slot/apply span triple per op, containment spans per
// corruption) and writes the sorted span JSONL to FILE on exit —
// ftss-tracev's input. -events carries shard lifecycle events, and
// /healthz on -admin answers 503 while any shard's verdict is failing;
// what the shared telemetry flags do is internal/cli's session
// (DESIGN.md §8, "Command shell").
//
//ftss:conc one goroutine per connection over monitor-guarded shards
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"ftss/internal/cli"
	"ftss/internal/sim/async"
	"ftss/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, cli.Shutdown("ftss-store")); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-store:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, stop <-chan struct{}) (err error) {
	fs := flag.NewFlagSet("ftss-store", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7400", "TCP listen address")
	shards := fs.Int("shards", 16, "independent consensus groups")
	replicas := fs.Int("replicas", 3, "replicas per shard")
	seed := fs.Int64("seed", 1, "seed for every shard's engine, batching, and corruption")
	maxBatch := fs.Int("max-batch", 64, "smr batch sealing bound")
	pipeline := fs.Int("pipeline", 2, "smr pipeline depth")
	corruptEvery := fs.Duration("corrupt-every", 0,
		"sim interval between per-shard corruption strikes (0 = off)")
	traceFile := fs.String("trace", "", "enable causal op tracing and write span JSONL to this file on exit")
	// -events appends: a restarted server extends its predecessor's file.
	tel := cli.Bind(fs, cli.Metrics|cli.MetricsInterval|cli.EventsAppend|cli.Admin|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Open(out); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()

	st := store.New(store.Config{
		Shards: *shards, Replicas: *replicas, Seed: *seed,
		MaxBatch: *maxBatch, Pipeline: *pipeline,
		CorruptEvery: async.Time(corruptEvery.Microseconds()),
		Trace:        *traceFile != "",
		Events:       tel.Sink(),
	})
	if err := tel.Serve("", st.MetricsSnapshot, func() (bool, []byte) { return healthz(st) }); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s (shards=%d replicas=%d seed=%d)\n",
		ln.Addr(), *shards, *replicas, *seed)

	serveErr := store.NewServer(st).Serve(ln, stop)

	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		err = st.WriteTrace(tf)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans, %d collisions -> %s\n",
			len(st.TraceSpans()), st.TraceCollisions(), *traceFile)
	}
	if err := st.Report(out); err != nil {
		return err
	}
	return serveErr
}

// healthz renders the live shard verdict summary for /healthz: one
// line per failing shard plus the pass count, 503 when any shard's
// incremental Definition 2.4 verdict is failing right now.
func healthz(st *store.Store) (bool, []byte) {
	var b []byte
	pass := 0
	for i, err := range st.Verdicts() {
		if err == nil {
			pass++
		} else {
			b = append(b, fmt.Sprintf("shard %03d FAIL: %v\n", i, err)...)
		}
	}
	b = append(b, fmt.Sprintf("verdicts %d/%d pass\n", pass, st.NumShards())...)
	return pass == st.NumShards(), b
}
