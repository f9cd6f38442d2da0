// Command ftss-node runs ONE process of the §3 stabilizing consensus as a
// real networked node: one OS process, one listener, framed TCP to every
// peer (internal/wire), the live supervisor inside (internal/sim/live),
// and the cluster-wide chaos schedule derived locally from the shared
// seed (internal/cluster) — partitions and link chaos enacted at the
// connection layer, clock skew on its own ticker, corruption strikes on
// its own state. Kills and restarts come from outside (ftss-cluster or an
// operator); a restarted incarnation passes -since to rejoin the schedule
// its peers are still executing, and -corrupt to model restart from
// garbage (§2.1).
//
// Usage:
//
//	ftss-node -id 0 -n 4 -listen 127.0.0.1:7000 \
//	          -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 \
//	          [-seed 1] [-episodes 3] [-episode-len 150ms] [-quiet-len 350ms]
//	          [-tick 1ms] [-cap 1024] [-poll 10ms] [-since 0] [-corrupt]
//	          [-metrics FILE] [-events FILE] [-chaos-events FILE]
//	          [-admin ADDR] [-pprof ADDR]
//
// -admin serves the live telemetry plane while the node runs: /metrics
// is the registry snapshot, /healthz the runtime health plus decision
// state (503 until this node's process decides), /events a tail of the
// -events stream.
//
// -events and -chaos-events are opened in append mode so a restarted
// incarnation extends the same files. The -chaos-events stream is a pure
// function of (seed, id): two same-seed runs produce byte-identical
// files — the cluster's reproducibility artifact. The -events stream
// carries node_poll records stamped with the cluster-wide poll index
// (plus wall-clock-stamped telemetry); ftss-cluster reassembles the poll
// records from every node into one Definition 2.4 verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ftss/internal/cli"
	"ftss/internal/cluster"
	"ftss/internal/obs"
	"ftss/internal/proc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-node:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ftss-node", flag.ContinueOnError)
	id := fs.Int("id", 0, "this node's process ID, in 0..n-1")
	n := fs.Int("n", 4, "cluster size")
	listen := fs.String("listen", "127.0.0.1:0", "transport listen address")
	peers := fs.String("peers", "", "comma-separated id=host:port for every other node")
	seed := fs.Int64("seed", 1, "cluster-wide seed: chaos schedule, inputs, backoff")
	episodes := fs.Int("episodes", 0, "chaos episodes in the shared schedule (0 = none)")
	episodeLen := fs.Duration("episode-len", 150*time.Millisecond, "chaotic interval per episode")
	quietLen := fs.Duration("quiet-len", 350*time.Millisecond, "recovery window after each episode")
	tick := fs.Duration("tick", time.Millisecond, "tick interval of the hosted process")
	mailboxCap := fs.Int("cap", 1024, "mailbox capacity (0 = unbounded); overflow drops oldest")
	poll := fs.Duration("poll", 10*time.Millisecond, "decision-register poll interval (cluster-wide grid)")
	since := fs.Duration("since", 0, "schedule offset this incarnation starts at (restarts)")
	corrupt := fs.Bool("corrupt", false, "corrupt the process state before running (restart from garbage)")
	chaosFile := fs.String("chaos-events", "", "append the deterministic chaos schedule stream to this file")
	// Both event streams append, so a restarted incarnation extends the
	// files its predecessor left behind; the -metrics snapshot is the
	// latest incarnation's.
	tel := cli.Bind(fs, cli.Metrics|cli.EventsAppend|cli.Admin|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peerMap, err := parsePeers(*peers, proc.ID(*id), *n)
	if err != nil {
		return err
	}
	cfg := cluster.NodeConfig{
		ID: proc.ID(*id), N: *n, Seed: *seed,
		Listen: *listen, Peers: peerMap,
		Episodes: *episodes, EpisodeLen: *episodeLen, QuietLen: *quietLen,
		Tick: *tick, MailboxCap: *mailboxCap, PollEvery: *poll,
		Since: *since, Corrupt: *corrupt,
	}
	if *chaosFile != "" {
		cf, err := os.OpenFile(*chaosFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer cf.Close()
		cfg.ChaosEvents = obs.NewJSONL(cf)
	}
	if err := tel.Open(os.Stdout); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()
	return cluster.RunNode(cfg, tel, cli.Shutdown("ftss-node"), os.Stdout)
}

// parsePeers parses "1=127.0.0.1:7001,2=..." into an ID→address map and
// checks it covers exactly the other n−1 processes.
func parsePeers(s string, self proc.ID, n int) (map[proc.ID]string, error) {
	out := make(map[proc.ID]string)
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("peer %q: want id=host:port", part)
			}
			p, err := strconv.Atoi(id)
			if err != nil {
				return nil, fmt.Errorf("peer %q: %v", part, err)
			}
			if p < 0 || p >= n {
				return nil, fmt.Errorf("peer %q: id outside 0..%d", part, n-1)
			}
			if proc.ID(p) == self {
				return nil, fmt.Errorf("peer %q is this node itself", part)
			}
			if _, dup := out[proc.ID(p)]; dup {
				return nil, fmt.Errorf("peer %d listed twice", p)
			}
			out[proc.ID(p)] = addr
		}
	}
	if len(out) != n-1 {
		return nil, fmt.Errorf("got %d peers, want %d (every node but %v)", len(out), n-1, self)
	}
	return out, nil
}
