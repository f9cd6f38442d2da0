// Command ftss-sync runs the compiled (Figure 3) repeated-consensus
// protocol on the synchronous simulator, with systemic failures injected at
// chosen rounds and a configurable process-failure adversary, then reports
// the Definition 2.4 verdict and the measured stabilization time.
//
// Usage:
//
//	ftss-sync [-n 5] [-f 2] [-rounds 40] [-corrupt 1,20] [-kind general-omission]
//	          [-p 0.3] [-seed 1] [-naive] [-v] [-trace] [-trace-from R] [-trace-to R]
//	          [-metrics FILE] [-events FILE]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"ftss/internal/cli"
	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
	"ftss/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-sync:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ftss-sync", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of processes")
	f := fs.Int("f", 2, "designated faulty bound (f < n)")
	rounds := fs.Int("rounds", 40, "rounds to run")
	corrupt := fs.String("corrupt", "1", "comma-separated rounds before which every process is struck by a systemic failure (1 = corrupted initial state)")
	kindName := fs.String("kind", "general-omission", "process failure kind: none, crash, send-omission, receive-omission, general-omission")
	p := fs.Float64("p", 0.3, "per-message omission probability")
	seed := fs.Int64("seed", 1, "random seed")
	naive := fs.Bool("naive", false, "run the naive (uncompiled) repetition instead of Π⁺")
	verbose := fs.Bool("v", false, "print per-round clocks and decisions")
	showTrace := fs.Bool("trace", false, "print the full timeline, segment structure and verdict report")
	traceFrom := fs.Int("trace-from", 0, "first round the -trace timeline renders (0 = start)")
	traceTo := fs.Int("trace-to", 0, "last round the -trace timeline renders (0 = end)")
	tel := cli.Bind(fs, cli.Metrics|cli.Events)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *f >= *n || *f < 0 {
		return fmt.Errorf("need 0 ≤ f < n, got n=%d f=%d", *n, *f)
	}
	fmt.Printf("ftss-sync: effective seed %d\n", *seed)

	corruptAt := map[int]bool{}
	for _, part := range strings.Split(*corrupt, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil || r < 1 {
			return fmt.Errorf("bad corruption round %q", part)
		}
		corruptAt[r] = true
	}

	faulty := proc.NewSet()
	for i := 0; i < *f; i++ {
		faulty.Add(proc.ID(i*2%*n + i/(*n)))
	}
	var adv failure.Adversary = failure.None{}
	if *kindName != "none" {
		var kind failure.Kind
		switch *kindName {
		case "crash":
			kind = failure.Crash
		case "send-omission":
			kind = failure.SendOmission
		case "receive-omission":
			kind = failure.ReceiveOmission
		case "general-omission":
			kind = failure.GeneralOmission
		default:
			return fmt.Errorf("unknown failure kind %q", *kindName)
		}
		adv = failure.NewRandom(kind, faulty, *p, *seed, uint64(*rounds/2))
	}

	pi := fullinfo.WavefrontConsensus{F: *f}
	in := superimpose.SeededInputs(*seed, 1000)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}

	if err := tel.Open(os.Stdout); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()
	reg := obs.NewRegistry()
	if err := tel.Serve("", reg.Snapshot, nil); err != nil {
		return err
	}
	sink := tel.Sink()

	h := history.New(*n, adv.Faulty())
	var e *round.Engine
	var clocks func() []string
	if *naive {
		cs, ps := superimpose.NaiveProcs(pi, *n, in)
		e = round.MustNewEngine(ps, adv)
		clocks = func() []string { return describeNaive(cs) }
	} else {
		cs, ps := superimpose.Procs(pi, *n, in)
		e = round.MustNewEngine(ps, adv)
		clocks = func() []string { return describeCompiled(cs) }
		superimpose.InstrumentAll(cs, &superimpose.Instruments{
			SuspectAdds: reg.Counter("pi.suspect_adds"),
			Resets:      reg.Counter("pi.resets"),
			Decisions:   reg.Counter("pi.decisions"),
			Sink:        sink,
		})
	}
	e.Instrument(&round.Instruments{
		Rounds:   reg.Counter("engine.rounds"),
		Messages: reg.Counter("engine.messages"),
		Dropped:  reg.Counter("engine.dropped"),
		Crashes:  reg.Counter("engine.crashes"),
		Sink:     sink,
	})
	e.Observe(h)

	rng := rand.New(rand.NewSource(*seed * 101))
	fmt.Printf("protocol: %s, compiled=%v, final_round=%d\n", pi.Name(), !*naive, pi.FinalRound())
	fmt.Printf("system: n=%d, designated faulty %v, adversary %s\n", *n, faulty, *kindName)
	for r := 1; r <= *rounds; r++ {
		if corruptAt[r] {
			struck := e.CorruptEverything(rng)
			if r > 1 {
				h.MarkSystemicFailure()
			}
			fmt.Printf("round %2d: SYSTEMIC FAILURE strikes %d processes\n", r, struck)
			if sink != nil {
				sink.Emit(obs.Event{Kind: "systemic", T: uint64(r), P: -1, Detail: "corrupt-everything",
					Fields: []obs.KV{{K: "struck", V: int64(struck)}}})
			}
		}
		e.Step()
		if *verbose {
			fmt.Printf("round %2d: %s\n", r, strings.Join(clocks(), "  "))
		}
	}

	fmt.Println()
	if *showTrace {
		opt := trace.Full()
		opt.From, opt.To = *traceFrom, *traceTo
		fmt.Println("--- timeline ---")
		trace.Timeline(os.Stdout, h, opt)
		fmt.Println("--- segments ---")
		trace.Segments(os.Stdout, h)
		fmt.Println("--- summary ---")
		trace.Summary(os.Stdout, h)
		fmt.Println()
	}
	ic := core.EvalIncremental(h, sigma, pi.FinalRound())
	m := ic.Measure()
	if sink != nil {
		trace.EventsFrom(sink, ic, m)
	}
	verdict := ic.Verdict()
	if verdict == nil {
		fmt.Printf("Definition 2.4 verdict: Σ⁺ ftss-SOLVED with stabilization time %d\n", pi.FinalRound())
	} else {
		fmt.Printf("Definition 2.4 verdict: VIOLATED — %v\n", verdict)
	}
	if m.Rounds >= 0 {
		fmt.Printf("measured stabilization of the final stable segment: %d rounds (event at round %d, satisfied from round %d)\n",
			m.Rounds, m.EventRound, m.SatisfiedFrom)
	} else {
		fmt.Println("the final stable segment never satisfied Σ⁺")
	}
	if verdict != nil && !*naive {
		return fmt.Errorf("compiled protocol failed the checker")
	}
	return nil
}

func describeCompiled(cs []*superimpose.Proc) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		d := "-"
		if dec, ok := c.LastDecision(); ok && dec.OK {
			d = fmt.Sprintf("%d@%d", dec.Value, dec.Iteration)
		}
		out[i] = fmt.Sprintf("p%d[c=%d %s]", i, c.Clock(), d)
	}
	return out
}

func describeNaive(cs []*superimpose.Naive) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		d := "-"
		if dec, ok := c.LastDecision(); ok && dec.OK {
			d = fmt.Sprintf("%d@%d", dec.Value, dec.Iteration)
		}
		out[i] = fmt.Sprintf("p%d[c=%d %s]", i, c.Clock(), d)
	}
	return out
}
