// Command ftss-cluster boots an n-node networked Π⁺ cluster — one
// ftss-node OS process per member, loopback TCP between them — and plays
// the launcher's share of the chaos schedule: whole-process kills
// (SIGKILL, no flush) and restarts (re-exec with -since to rejoin the
// schedule, -corrupt for restart from garbage). Everything else —
// partitions, link chaos, clock skew, corruption strikes — the nodes
// enact themselves from the same seed-derived plan, with no coordination
// message ever crossing the network.
//
// After the schedule's horizon the launcher collects every node's event
// stream, reassembles the node_poll records into one global trace, and
// feeds it to the Definition 2.4 checker: the run passes only if the
// cluster re-stabilized within the measured budget after every staged
// disruption. Exit status follows the verdict.
//
// Usage:
//
//	ftss-cluster [-n 4] [-seed 1] [-episodes 3] [-episode-len 150ms]
//	             [-quiet-len 350ms] [-tick 1ms] [-cap 1024] [-poll 10ms]
//	             [-dir DIR] [-node PATH] [-admin ADDR] [-pprof ADDR]
//
// -admin serves the launcher's live telemetry plane: /metrics counts
// boots/kills and the nodes-up gauge, /healthz lists per-node up/down
// (503 when a majority is down), /events tails node_boot/node_kill/
// node_exit lifecycle records.
//
// Artifacts land in -dir (default: a fresh temp directory): schedule.txt
// (the staged plan), node-i.log, node-i.events.jsonl, node-i.chaos.jsonl
// (byte-identical across same-seed runs), node-i.metrics.txt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/cli"
	"ftss/internal/cluster"
	"ftss/internal/core"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-cluster:", err)
		os.Exit(1)
	}
}

type params struct {
	n          int
	seed       int64
	episodes   int
	episodeLen time.Duration
	quietLen   time.Duration
	tick       time.Duration
	cap        int
	poll       time.Duration
	dir        string
	nodeBin    string
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ftss-cluster", flag.ContinueOnError)
	var p params
	fs.IntVar(&p.n, "n", 4, "cluster size (one OS process per node)")
	fs.Int64Var(&p.seed, "seed", 1, "cluster-wide seed: chaos, inputs, backoff")
	fs.IntVar(&p.episodes, "episodes", 3, "chaos episodes to stage")
	fs.DurationVar(&p.episodeLen, "episode-len", 150*time.Millisecond, "chaotic interval per episode")
	fs.DurationVar(&p.quietLen, "quiet-len", 350*time.Millisecond, "recovery window after each episode")
	fs.DurationVar(&p.tick, "tick", time.Millisecond, "tick interval per process")
	fs.IntVar(&p.cap, "cap", 1024, "mailbox capacity per node")
	fs.DurationVar(&p.poll, "poll", 10*time.Millisecond, "decision-register poll interval")
	fs.StringVar(&p.dir, "dir", "", "artifact directory (default: fresh temp dir)")
	fs.StringVar(&p.nodeBin, "node", "", "path to the ftss-node binary (default: beside this binary, then $PATH)")
	tel := cli.Bind(fs, cli.Admin|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.n < 3 {
		return fmt.Errorf("need n ≥ 3, got %d", p.n)
	}
	if err := tel.Open(os.Stdout); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()
	if p.nodeBin == "" {
		if p.nodeBin, err = findNodeBin(); err != nil {
			return err
		}
	}
	if p.dir == "" {
		if p.dir, err = os.MkdirTemp("", "ftss-cluster-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}

	plan := chaos.NewPlan(p.seed, chaos.PlanConfig{
		N: p.n, Episodes: p.episodes,
		EpisodeLen: p.episodeLen, QuietLen: p.quietLen,
	})
	if err := os.WriteFile(filepath.Join(p.dir, "schedule.txt"), []byte(plan.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("ftss-cluster: effective seed %d, %d nodes, horizon %v, artifacts in %s\n",
		p.seed, p.n, plan.Horizon(), p.dir)
	fmt.Print(plan)

	l, err := newLauncher(p, obs.Tee(tel.Sink()))
	if err != nil {
		return err
	}
	defer l.closeLogs()
	if err := tel.Serve("", l.reg.Snapshot, l.status); err != nil {
		return err
	}
	for i := 0; i < p.n; i++ {
		if err := l.start(proc.ID(i), 0, false); err != nil {
			l.killAll()
			return err
		}
	}
	interrupted := l.playSchedule(plan, cli.Shutdown("ftss-cluster"))
	l.drain(interrupted)

	if err := verdict(plan, p, os.Stdout); err != nil {
		return err
	}
	if interrupted {
		return errors.New("interrupted (partial trace judged above)")
	}
	return nil
}

// findNodeBin looks for ftss-node beside this executable, then on $PATH.
func findNodeBin() (string, error) {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "ftss-node")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if cand, err := exec.LookPath("ftss-node"); err == nil {
		return cand, nil
	}
	return "", errors.New("ftss-node binary not found (build it, or pass -node PATH)")
}

type child struct {
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait() exactly once per incarnation
}

type launcher struct {
	p     params
	addrs []string
	logs  []*os.File
	epoch time.Time

	mu sync.Mutex
	// kids is guarded by mu: the schedule player mutates it while the
	// admin handlers read it.
	kids []*child

	// Launcher telemetry, live behind -admin: the schedule player is the
	// only writer, the admin handlers the readers.
	reg    *obs.Registry
	sink   obs.Sink
	upG    *obs.Gauge
	killsC *obs.Counter
	bootsC *obs.Counter
}

func newLauncher(p params, sink obs.Sink) (*launcher, error) {
	l := &launcher{p: p, addrs: make([]string, p.n),
		logs: make([]*os.File, p.n), kids: make([]*child, p.n),
		reg: obs.NewRegistry(), sink: sink}
	l.upG = l.reg.Gauge("cluster.nodes_up")
	l.killsC = l.reg.Counter("cluster.kills")
	l.bootsC = l.reg.Counter("cluster.boots")
	for i := range l.addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l.addrs[i] = ln.Addr().String()
		ln.Close()
	}
	for i := range l.logs {
		f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("node-%d.log", i)))
		if err != nil {
			return nil, err
		}
		l.logs[i] = f
	}
	l.epoch = time.Now()
	return l, nil
}

func (l *launcher) closeLogs() {
	for _, f := range l.logs {
		if f != nil {
			f.Close()
		}
	}
}

// start boots (or re-boots) node id at schedule offset since.
func (l *launcher) start(id proc.ID, since time.Duration, corrupt bool) error {
	var peers []string
	for p := 0; p < l.p.n; p++ {
		if proc.ID(p) != id {
			peers = append(peers, fmt.Sprintf("%d=%s", p, l.addrs[p]))
		}
	}
	args := []string{
		"-id", fmt.Sprint(int(id)), "-n", fmt.Sprint(l.p.n),
		"-listen", l.addrs[id], "-peers", strings.Join(peers, ","),
		"-seed", fmt.Sprint(l.p.seed),
		"-episodes", fmt.Sprint(l.p.episodes),
		"-episode-len", l.p.episodeLen.String(),
		"-quiet-len", l.p.quietLen.String(),
		"-tick", l.p.tick.String(), "-cap", fmt.Sprint(l.p.cap),
		"-poll", l.p.poll.String(), "-since", since.String(),
		"-events", filepath.Join(l.p.dir, fmt.Sprintf("node-%d.events.jsonl", id)),
		"-chaos-events", filepath.Join(l.p.dir, fmt.Sprintf("node-%d.chaos.jsonl", id)),
		"-metrics", filepath.Join(l.p.dir, fmt.Sprintf("node-%d.metrics.txt", id)),
	}
	if corrupt {
		args = append(args, "-corrupt")
	}
	cmd := exec.Command(l.p.nodeBin, args...)
	cmd.Stdout = l.logs[id]
	cmd.Stderr = l.logs[id]
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("node %d: %w", int(id), err)
	}
	c := &child{cmd: cmd, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	l.mu.Lock()
	l.kids[id] = c
	l.mu.Unlock()
	l.bootsC.Inc()
	l.upG.Set(int64(l.upCount()))
	l.sink.Emit(obs.Event{Kind: "node_boot", T: l.wallMS(), P: int(id),
		Fields: []obs.KV{{K: "since_ms", V: since.Milliseconds()}}})
	return nil
}

// wallMS stamps launcher lifecycle events in wall milliseconds since the
// cluster epoch — live telemetry, not a deterministic artifact.
func (l *launcher) wallMS() uint64 {
	ms := time.Since(l.epoch).Milliseconds()
	if ms < 0 {
		return 0
	}
	return uint64(ms)
}

func (l *launcher) upCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	up := 0
	for _, c := range l.kids {
		if c != nil {
			up++
		}
	}
	return up
}

// status renders /healthz: one line per node slot plus the up count.
// Healthy means a majority of member processes are currently running —
// the cluster can still decide — so a staged kill window reads 200 while
// a wider outage reads 503.
func (l *launcher) status() (bool, []byte) {
	l.mu.Lock()
	up := 0
	states := make([]string, len(l.kids))
	for i, c := range l.kids {
		if c != nil {
			up++
			states[i] = "up"
		} else {
			states[i] = "down"
		}
	}
	l.mu.Unlock()
	var b []byte
	for i, s := range states {
		b = append(b, fmt.Sprintf("node %d %s\n", i, s)...)
	}
	b = append(b, fmt.Sprintf("nodes %d/%d up\n", up, len(states))...)
	return up*2 > len(states), b
}

// playSchedule executes the launcher's share of the plan — kills and
// restarts — at their staged offsets, and reports whether a shutdown
// signal cut it short.
func (l *launcher) playSchedule(plan *chaos.Plan, stop <-chan struct{}) bool {
	var acts []chaos.Action
	for _, act := range plan.Actions() {
		if act.Kind == chaos.ActKill || act.Kind == chaos.ActRestart {
			acts = append(acts, act)
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	for _, act := range acts {
		if !l.sleepUntil(l.epoch.Add(act.At), stop) {
			l.signalAll(syscall.SIGTERM)
			return true
		}
		switch act.Kind {
		case chaos.ActKill:
			fmt.Printf("t=%v SIGKILL node %d\n", act.At, int(act.P))
			l.kill(act.P)
		case chaos.ActRestart:
			// -since is the plan offset, not measured elapsed time: the
			// restarted incarnation's seed-derived artifacts stay
			// byte-identical across runs.
			fmt.Printf("t=%v restart node %d (since=%v corrupt=%v)\n",
				act.At, int(act.P), act.At, act.CorruptState)
			if err := l.start(act.P, act.At, act.CorruptState); err != nil {
				fmt.Fprintln(os.Stderr, "ftss-cluster:", err)
			}
		}
	}
	if !l.sleepUntil(l.epoch.Add(plan.Horizon()), stop) {
		l.signalAll(syscall.SIGTERM)
		return true
	}
	return false
}

func (l *launcher) sleepUntil(at time.Time, stop <-chan struct{}) bool {
	wait := time.Until(at)
	if wait <= 0 {
		return true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// kill SIGKILLs one node — the chaos semantics: no flush, no goodbye.
func (l *launcher) kill(id proc.ID) {
	l.mu.Lock()
	c := l.kids[id]
	l.kids[id] = nil
	l.mu.Unlock()
	if c == nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.done // reap
	l.killsC.Inc()
	l.upG.Set(int64(l.upCount()))
	l.sink.Emit(obs.Event{Kind: "node_kill", T: l.wallMS(), P: int(id)})
}

func (l *launcher) killAll() {
	for id := 0; id < l.p.n; id++ {
		l.kill(proc.ID(id))
	}
}

func (l *launcher) signalAll(sig syscall.Signal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.kids {
		if c != nil {
			c.cmd.Process.Signal(sig)
		}
	}
}

// drain waits for every surviving node to exit on its own; stragglers are
// nudged with SIGTERM and finally SIGKILLed.
func (l *launcher) drain(interrupted bool) {
	grace := 10 * time.Second
	deadline := time.After(grace)
	for id := 0; id < l.p.n; id++ {
		l.mu.Lock()
		c := l.kids[id]
		l.mu.Unlock()
		if c == nil {
			continue
		}
		select {
		case err := <-c.done:
			if err != nil && !interrupted {
				fmt.Fprintf(os.Stderr, "ftss-cluster: node %d exited: %v\n", id, err)
			}
		case <-deadline:
			c.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-c.done:
			case <-time.After(2 * time.Second):
				c.cmd.Process.Kill()
				<-c.done
			}
		}
		l.mu.Lock()
		l.kids[id] = nil
		l.mu.Unlock()
		l.upG.Set(int64(l.upCount()))
		l.sink.Emit(obs.Event{Kind: "node_exit", T: l.wallMS(), P: id})
	}
}

// verdict reassembles every node's poll records into one global trace and
// runs the Definition 2.4 check with the smallest budget that accepts it.
func verdict(plan *chaos.Plan, p params, w io.Writer) error {
	var all []cluster.PollRecord
	for i := 0; i < p.n; i++ {
		path := filepath.Join(p.dir, fmt.Sprintf("node-%d.events.jsonl", i))
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("node %d left no event stream: %w", i, err)
		}
		recs, err := cluster.ParsePolls(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if len(recs) == 0 {
			return fmt.Errorf("node %d produced no poll records (did it ever come up?)", i)
		}
		all = append(all, recs...)
	}

	rec := cluster.Reassemble(plan, p.poll, all)
	budget := cluster.MeasuredStabilization(rec)
	fmt.Fprintf(w, "\nreassembled %d poll records from %d nodes into %d global polls, %d systemic marks\n",
		len(all), p.n, rec.Polls(), len(plan.Episodes))
	if budget < 0 {
		budget = int(rec.Polls())
		fmt.Fprintf(w, "no budget up to the poll count accepted the trace; reporting with the trivial %d\n", budget)
	} else {
		fmt.Fprintf(w, "measured stabilization budget: %d of %d polls\n", budget, rec.Polls())
	}
	return trace.VerdictFrom(w, core.EvalIncremental(rec.History(), chaos.StableAgreement, budget))
}
