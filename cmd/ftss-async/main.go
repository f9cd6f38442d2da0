// Command ftss-async runs the self-stabilizing asynchronous consensus of
// §3 (Chandra–Toueg with the paper's superimposed mechanisms, over the
// Figure 4 ◊W→◊S transform) on the discrete-event simulator, with optional
// initial-state corruption and crash failures, and reports the
// eventual-stable-agreement verdict.
//
// Usage:
//
//	ftss-async [-n 5] [-crashes 2] [-corrupt] [-horizon 1200] [-seed 1] [-baseline] [-v]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

const ms = async.Millisecond

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-async:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ftss-async", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of processes")
	crashes := fs.Int("crashes", 2, "processes that crash (must be < n/2 for liveness)")
	corrupt := fs.Bool("corrupt", true, "corrupt every process's initial state")
	horizon := fs.Int("horizon", 1200, "virtual run length in milliseconds")
	seed := fs.Int64("seed", 1, "random seed")
	baseline := fs.Bool("baseline", false, "run plain [CT91] instead of the stabilizing protocol")
	verbose := fs.Bool("v", false, "print decision registers every 50 virtual ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *crashes >= (*n+1)/2 {
		return fmt.Errorf("need crashes < n/2 for liveness, got n=%d crashes=%d", *n, *crashes)
	}
	fmt.Printf("ftss-async: effective seed %d\n", *seed)

	crashAt := map[proc.ID]async.Time{}
	for i := 0; i < *crashes; i++ {
		crashAt[proc.ID(*n-1-i)] = async.Time(15+10*i) * ms
	}
	weak := &detector.SimulatedWeak{
		N: *n, CrashAt: crashAt,
		AccuracyAt: 30 * ms, Lag: 3 * ms,
		NoiseP: 0.25, SlanderP: 0.15, Seed: *seed,
	}

	inputs := ctcons.SeededInputs(*seed, *n)
	cfg := ctcons.Stabilizing()
	if *baseline {
		cfg = ctcons.Baseline()
	}
	cs, aps := ctcons.Procs(*n, inputs, cfg, weak)
	e := async.MustNewEngine(aps, async.Config{
		Seed: *seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms, CrashAt: crashAt,
	})
	if *corrupt {
		crng := rand.New(rand.NewSource(*seed * 7))
		for _, c := range cs {
			c.Corrupt(crng)
		}
		fmt.Printf("systemic failure: all %d processes start from arbitrary states\n", *n)
	}
	fmt.Printf("protocol: %s, inputs %v, crash schedule %v\n",
		map[bool]string{true: "baseline [CT91]", false: "stabilizing (§3)"}[*baseline],
		inputs, crashAt)

	var samples []ctcons.DecisionSample
	for e.Now() < async.Time(*horizon)*ms {
		samples = append(samples, ctcons.SampleDecisions(e, cs, 5*ms, e.Now()+50*ms)...)
		if *verbose {
			fmt.Printf("t=%4dms: ", e.Now()/ms)
			for _, c := range cs {
				if v, r, ok := c.Decision(); ok {
					fmt.Printf("p%d=%d@r%d ", c.ID(), v, r)
				} else {
					fmt.Printf("p%d=? ", c.ID())
				}
			}
			fmt.Println()
		}
	}

	fmt.Println()
	out, err := ctcons.VerifyStableAgreement(samples, e.Correct())
	if err != nil {
		fmt.Printf("verdict: FAILED — %v\n", err)
		if !*baseline {
			return fmt.Errorf("stabilizing protocol failed")
		}
		fmt.Println("(expected for the baseline under corruption: this is the failure the paper's mechanisms repair)")
		return nil
	}
	fmt.Printf("verdict: eventual stable agreement on %d, stable from t=%dms\n",
		out.Value, out.StableFrom/ms)
	fmt.Printf("messages: %d sent, %d delivered\n", e.MessagesSent(), e.MessagesDelivered())
	if !*corrupt {
		if err := ctcons.VerifyValidity(out, inputs); err != nil {
			return err
		}
		fmt.Println("validity: the decision is some process's input")
	}
	return nil
}
