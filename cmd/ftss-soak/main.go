// Command ftss-soak runs the paper's protocol stack under continuous
// staged chaos on the supervised goroutine runtime: the fully
// constructive §3 consensus (heartbeat timeout detector + Figure 4
// ◊W→◊S transform + stabilizing consensus) and the self-stabilizing
// replicated log, attacked by a seeded schedule of partitions, link
// chaos (loss/duplication/reordering), crash-restarts from corrupted
// state, in-place systemic corruption, and clock skew.
//
// Between chaos episodes the harness requires each cluster to
// re-stabilize: the consensus cluster must reach stable agreement, the
// log cluster must show no per-slot conflicts near its frontier. The
// whole run is additionally folded into the paper's Definition 2.4
// machinery — each poll is one observed round, each episode a systemic
// failure mark — and the final verdict comes from the same
// core.EvalIncremental / trace.VerdictFrom path the simulators use.
//
// The fault schedule is a pure function of -seed: a failing run is
// reproduced by re-running with the seed it printed at startup.
//
// With -runs R the harness stages R independent soaks on seeds
// seed..seed+R-1, fanned across -workers goroutines. Each run's output is
// buffered and emitted whole, in seed order, so the report is
// byte-identical to running the seeds sequentially.
//
// Usage:
//
//	ftss-soak [-seed 1] [-n 5] [-episodes 5] [-episode-len 150ms]
//	          [-quiet-len 350ms] [-tick 300us] [-cap 1024]
//	          [-runs 1] [-workers 0]
//	          [-metrics FILE] [-metrics-interval 0] [-events FILE] [-pprof ADDR]
//
// -metrics aggregates both clusters' instruments (cons.* and smr.*
// prefixes) plus the recorder's soak.* counters across every run;
// -events captures the structured JSONL stream — supervision and
// nemesis events stamped with elapsed µs, recorder polls/marks stamped
// with poll counts, and the final Definition 2.4 segment/verdict events.
// With -runs R each run's events are buffered and concatenated in seed
// order, matching the report. The shared telemetry flags are
// internal/cli's session (DESIGN.md §8).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/cli"
	"ftss/internal/core"
	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/obs"
	"ftss/internal/pool"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/sim/live"
	"ftss/internal/smr"
	"ftss/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-soak:", err)
		os.Exit(1)
	}
}

// buildPlan derives the soak's chaos schedule; it is a pure function of
// its arguments (same seed, same faults), which the tests pin down.
func buildPlan(seed int64, n, episodes int, episodeLen, quietLen time.Duration) *chaos.Plan {
	return chaos.NewPlan(seed, chaos.PlanConfig{
		N: n, Episodes: episodes,
		EpisodeLen: episodeLen, QuietLen: quietLen,
	})
}

// errInterrupted marks a run cut short by SIGINT/SIGTERM: its partial
// trace was still judged and its telemetry still flushed, but the run is
// not a pass.
var errInterrupted = errors.New("interrupted")

// soakParams is one soak run's full configuration. reg and sink are nil
// when telemetry is off; with -runs, each run gets its own registry
// (merged into the shared one when the run ends, so its health lines
// count that run alone) and its own buffered sink.
type soakParams struct {
	seed       int64
	n          int
	episodes   int
	episodeLen time.Duration
	quietLen   time.Duration
	tick       time.Duration
	cap        int
	reg        *obs.Registry
	sink       obs.Sink
	stop       <-chan struct{}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("ftss-soak", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed for the fault schedule, inputs, and delays")
	n := fs.Int("n", 5, "processes per cluster")
	episodes := fs.Int("episodes", 5, "chaos episodes to stage")
	episodeLen := fs.Duration("episode-len", 150*time.Millisecond, "chaotic interval per episode")
	quietLen := fs.Duration("quiet-len", 350*time.Millisecond, "recovery window after each episode")
	tick := fs.Duration("tick", 300*time.Microsecond, "tick interval per process")
	cap := fs.Int("cap", 1024, "mailbox capacity (0 = unbounded); overflow drops oldest")
	runs := fs.Int("runs", 1, "independent soak runs on seeds seed..seed+runs-1")
	workers := fs.Int("workers", 0, "runs executed concurrently; 0 = GOMAXPROCS. "+
		"Output is merged in seed order, byte-identical to a sequential run")
	tel := cli.Bind(fs, cli.Metrics|cli.MetricsInterval|cli.Events|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 3 {
		return fmt.Errorf("need n ≥ 3 for a crash-tolerant majority, got %d", *n)
	}
	if err := tel.Open(w); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()
	p := soakParams{
		seed: *seed, n: *n, episodes: *episodes,
		episodeLen: *episodeLen, quietLen: *quietLen,
		tick: *tick, cap: *cap,
		stop: cli.Shutdown("ftss-soak"),
	}
	if tel.HasMetrics() || tel.Sink() != nil {
		// One registry shared by every run; the session streams its deltas
		// and writes its exit snapshot, also from a failing soak.
		p.reg = obs.NewRegistry()
		if err := tel.Serve("", p.reg.Snapshot, nil); err != nil {
			return err
		}
	}
	if *runs <= 1 {
		p.sink = tel.Sink()
		return soak(p, w)
	}
	return soakMany(p, *runs, *workers, w, tel.EventsWriter())
}

// soakMany stages `runs` independent soaks on consecutive seeds across
// the bounded worker pool, buffering each run's report — and, when
// eventsW is set, its event stream — and emitting both in seed order.
func soakMany(p soakParams, runs, workers int, w io.Writer, eventsW io.Writer) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]bytes.Buffer, runs)
	evs := make([]bytes.Buffer, runs)
	errs := pool.Run(workers, runs, func(i int) error {
		select {
		case <-p.stop:
			return nil // interrupted: leave the claimed run unstarted
		default:
		}
		pi := p
		pi.seed = p.seed + int64(i)
		if eventsW != nil {
			pi.sink = obs.NewJSONL(&evs[i])
		}
		if p.reg != nil {
			pi.reg = obs.NewRegistry()
			defer p.reg.Merge("", pi.reg)
		}
		return soak(pi, &outs[i])
	})

	var evErr error
	failed, stopped, printed := 0, 0, 0
	for i := 0; i < runs; i++ {
		if outs[i].Len() == 0 {
			stopped++ // interrupted before this run began
			continue
		}
		if printed > 0 {
			fmt.Fprintln(w)
		}
		printed++
		w.Write(outs[i].Bytes())
		if eventsW != nil && evErr == nil {
			_, evErr = eventsW.Write(evs[i].Bytes())
		}
		switch {
		case errors.Is(errs[i], errInterrupted):
			stopped++
		case errs[i] != nil:
			failed++
			fmt.Fprintf(w, "run %d (seed %d): %v\n", i, p.seed+int64(i), errs[i])
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d soak run(s) failed", failed, runs)
	}
	if stopped > 0 {
		fmt.Fprintf(w, "\ninterrupted: %d of %d run(s) completed cleanly\n", runs-stopped, runs)
		return errInterrupted
	}
	if evErr != nil {
		return fmt.Errorf("event stream: %w", evErr)
	}
	fmt.Fprintf(w, "\nall %d soak runs passed (seeds %d..%d)\n", runs, p.seed, p.seed+int64(runs)-1)
	return nil
}

func soak(p soakParams, w io.Writer) error {
	seed, n := p.seed, p.n
	fmt.Fprintf(w, "ftss-soak: effective seed %d\n", seed)

	plan := buildPlan(seed, n, p.episodes, p.episodeLen, p.quietLen)
	fmt.Fprint(w, plan)

	inputs := ctcons.SeededInputs(seed, n)

	// Cluster 1: oracle-free consensus — heartbeats, adaptive timeouts,
	// Figure 4, §3 — the stack that must live off real traffic.
	var consObs, smrObs *live.Instruments
	if p.reg != nil {
		consObs = live.NewInstruments(p.reg, "cons", p.sink)
		smrObs = live.NewInstruments(p.reg, "smr", p.sink)
	}
	_, consProcs := ctcons.NewConstructiveProcs(n, inputs, ctcons.Stabilizing(),
		5*async.Millisecond, async.Millisecond)
	consRT := live.MustNew(consProcs, live.Config{
		Seed: seed, TickEvery: p.tick,
		MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond,
		Nemesis: plan, MailboxCap: p.cap,
		Obs: consObs,
	})

	// Cluster 2: the replicated log, with a quiet (never-suspecting,
	// legal) ◊W — every killed replica restarts, so completeness is
	// vacuous and coordinator stalls end with the episode.
	quiet := &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: seed}
	cmds := func(p proc.ID, slot uint64) smr.Value {
		return smr.Value(int64(slot)*1000 + int64(p))
	}
	_, smrProcs := smr.NewReplicas(n, cmds, quiet)
	smrRT := live.MustNew(smrProcs, live.Config{
		Seed: seed + 1, TickEvery: p.tick,
		MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond,
		Nemesis: plan, MailboxCap: p.cap,
		Obs: smrObs,
	})

	consRT.Start()
	defer consRT.Stop()
	smrRT.Start()
	defer smrRT.Stop()
	consDone := consRT.Apply(plan.Actions(), rand.New(rand.NewSource(seed*5)))
	smrDone := smrRT.Apply(plan.Actions(), rand.New(rand.NewSource(seed*5+1)))

	var failures []string
	fail := func(format string, a ...any) {
		failures = append(failures, fmt.Sprintf(format, a...))
		fmt.Fprintf(w, "FAIL: %s\n", failures[len(failures)-1])
		if p.reg != nil {
			p.reg.Counter("soak.failures").Inc()
		}
	}

	rec := chaos.NewRecorder(n)
	if p.reg != nil {
		rec.Instrument(&chaos.RecorderInstruments{
			Polls: p.reg.Counter("soak.polls"),
			Marks: p.reg.Counter("soak.marks"),
			Sink:  p.sink,
		})
	}
	start := time.Now()
	horizon := plan.Horizon()
	const pollEvery = 10 * time.Millisecond
	const needStreak = 3

	nextEp := 0
	var inEpisodeUntil time.Duration
	streak := 0
	windowStable := true // lead window counts from t=0
	windowIdx := 0

	closeWindow := func() {
		if !windowStable {
			fail("window %d: consensus cluster did not reach stable agreement before the next episode", windowIdx)
		}
		if msg := smrConflicts(smrRT, n); msg != "" {
			fail("window %d: replicated log: %s", windowIdx, msg)
		}
		if p.sink != nil {
			stable := int64(1)
			if !windowStable {
				stable = 0
			}
			p.sink.Emit(obs.Event{Kind: "quiet_window", T: uint64(time.Since(start) / time.Microsecond), P: -1,
				Fields: []obs.KV{{K: "index", V: int64(windowIdx)}, {K: "stable", V: stable}}})
		}
		windowIdx++
		windowStable = false
	}

	interrupted := false
	for {
		elapsed := time.Since(start)
		if elapsed >= horizon {
			break
		}
		select {
		case <-p.stop:
			interrupted = true
		default:
		}
		if interrupted {
			break
		}
		if nextEp < len(plan.Episodes) && elapsed >= plan.Episodes[nextEp].Start {
			ep := plan.Episodes[nextEp]
			closeWindow()
			fmt.Fprintf(w, "t=%v episode %d (%s): %s\n",
				elapsed.Round(time.Millisecond), ep.Index, ep.Class, ep.Desc)
			if p.sink != nil {
				p.sink.Emit(obs.Event{Kind: "episode", T: uint64(elapsed / time.Microsecond), P: -1,
					Detail: ep.Class.String(),
					Fields: []obs.KV{{K: "index", V: int64(ep.Index)}}})
			}
			rec.Mark()
			inEpisodeUntil = ep.End
			nextEp++
			streak = 0
		}
		up, cells := pollConsensus(consRT, n)
		rec.Observe(up, cells)
		if elapsed >= inEpisodeUntil && up.Len() == n && allAgree(up, cells) {
			streak++
			if streak >= needStreak {
				windowStable = true
			}
		} else {
			streak = 0
		}
		time.Sleep(pollEvery)
	}
	if interrupted {
		// Graceful stop: the in-flight window is incomplete, so it is not
		// judged; the partial trace still gets its Definition 2.4 verdict
		// and the telemetry snapshot still lands on disk.
		fmt.Fprintf(w, "interrupted at t=%v; evaluating the partial trace\n",
			time.Since(start).Round(time.Millisecond))
		consRT.Stop()
		smrRT.Stop()
	} else {
		closeWindow() // the final quiet window
	}
	<-consDone
	<-smrDone
	if interrupted && rec.Polls() == 0 {
		fmt.Fprintln(w, "no polls recorded before the interrupt")
		return errInterrupted
	}

	// Definition 2.4 verdict over the whole recorded run: find the
	// smallest stabilization budget (in polls) that ftss-solves stable
	// agreement, and report it exactly as the simulators would.
	h := rec.History()
	budget := core.MinimalStabilization(h, chaos.StableAgreement)
	fmt.Fprintf(w, "\nconsensus cluster over %d polls, %d systemic marks:\n",
		rec.Polls(), len(plan.Episodes))
	if uint64(budget) > rec.Polls() {
		// No budget within the poll count suffices: report at the cap.
		budget = int(rec.Polls())
	}
	// One evaluation renders both the report and the event stream.
	ic := core.EvalIncremental(h, chaos.StableAgreement, budget)
	if err := trace.VerdictFrom(w, ic); err != nil {
		fail("Definition 2.4: %v", err)
	}
	if p.sink != nil {
		trace.EventsFrom(p.sink, ic, ic.Measure())
	}

	if f, ok := minFrontier(smrRT, n); !ok || f == 0 {
		fmt.Fprintln(w, "replicated log: no common decided frontier (informational)")
	} else {
		fmt.Fprintf(w, "replicated log: common decided frontier %d\n", f)
	}

	// Stopped first, so the health lines are the runs' final counts.
	consRT.Stop()
	smrRT.Stop()
	fmt.Fprintf(w, "consensus %s\n", consRT.Health())
	fmt.Fprintf(w, "log       %s\n", smrRT.Health())

	if len(failures) > 0 {
		return fmt.Errorf("%d check(s) failed; reproduce with -seed %d", len(failures), seed)
	}
	if interrupted {
		fmt.Fprintf(w, "partial soak clean over %d polls, but interrupted before the horizon\n", rec.Polls())
		return errInterrupted
	}
	fmt.Fprintf(w, "soak passed: %d episodes (%v), every quiet window re-stabilized\n",
		len(plan.Episodes), classList(plan))
	return nil
}

// pollConsensus snapshots every up process's decision register.
func pollConsensus(rt *live.Runtime, n int) (proc.Set, map[proc.ID]chaos.DecisionCell) {
	up := rt.Up()
	cells := make(map[proc.ID]chaos.DecisionCell, n)
	for _, p := range up.Sorted() {
		p := p
		ok := rt.Inspect(p, func(ap async.Proc) {
			v, r, decided := ap.(*ctcons.HeartbeatProc).Decision()
			cells[p] = chaos.DecisionCell{OK: decided, Round: r, Val: int64(v)}
		})
		if !ok { // crashed between Up() and Inspect
			up.Remove(p)
			delete(cells, p)
		}
	}
	return up, cells
}

func allAgree(up proc.Set, cells map[proc.ID]chaos.DecisionCell) bool {
	var common chaos.DecisionCell
	first := true
	for _, p := range up.Sorted() {
		c := cells[p]
		if !c.OK {
			return false
		}
		if first {
			common, first = c, false
		} else if c != common {
			return false
		}
	}
	return !first
}

// smrConflicts checks per-slot agreement near the frontier across the up
// replicas (the gossip window is the repair horizon, as in E13). It
// returns "" when clean.
func smrConflicts(rt *live.Runtime, n int) string {
	seen := map[uint64]smr.Value{}
	holder := map[uint64]proc.ID{}
	for _, p := range rt.Up().Sorted() {
		p := p
		var msg string
		rt.Inspect(p, func(ap async.Proc) {
			r := ap.(*smr.Replica)
			f, ok := r.Frontier()
			if !ok {
				return
			}
			lo := uint64(0)
			if f > smr.GossipWindow {
				lo = f - smr.GossipWindow
			}
			for s := lo; s <= f; s++ {
				v, ok := r.Get(s)
				if !ok {
					continue
				}
				if prev, dup := seen[s]; dup && prev != v {
					msg = fmt.Sprintf("slot %d: %v holds %d, %v holds %d",
						s, p, v, holder[s], prev)
					return
				}
				seen[s], holder[s] = v, p
			}
		})
		if msg != "" {
			return msg
		}
	}
	return ""
}

// minFrontier is the smallest decided-slot frontier over up replicas.
func minFrontier(rt *live.Runtime, n int) (uint64, bool) {
	var min uint64
	first := true
	all := true
	for _, p := range rt.Up().Sorted() {
		p := p
		rt.Inspect(p, func(ap async.Proc) {
			f, ok := ap.(*smr.Replica).Frontier()
			if !ok {
				all = false
				return
			}
			if first || f < min {
				min, first = f, false
			}
		})
	}
	return min, all && !first
}

func classList(p *chaos.Plan) string {
	s := ""
	for i, c := range p.Classes() {
		if i > 0 {
			s += ", "
		}
		s += c.String()
	}
	return s
}
