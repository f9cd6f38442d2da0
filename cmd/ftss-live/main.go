// Command ftss-live runs the §3 stabilizing consensus on REAL goroutines
// and channels (the internal/sim/live runtime) rather than the
// deterministic simulator: one goroutine per process, unbounded mailboxes,
// wall-clock ticks, optional artificial delays, a crash schedule applied
// through Runtime.Apply, and corrupted initial states. It polls the
// decision registers until they stabilize or the deadline passes.
//
// Usage:
//
//	ftss-live [-n 5] [-crashes 2] [-corrupt] [-deadline 5s] [-tick 300us] [-seed 1]
//	          [-metrics FILE] [-events FILE] [-pprof ADDR]
//
// -metrics/-events capture the runtime's telemetry (traffic counters,
// mailbox high-water, supervision events stamped with elapsed µs). The
// shared telemetry flags are internal/cli's session (DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/cli"
	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/sim/live"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-live:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ftss-live", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of processes (goroutines)")
	crashes := fs.Int("crashes", 2, "processes that crash (< n/2)")
	corrupt := fs.Bool("corrupt", true, "corrupt every process's initial state")
	deadline := fs.Duration("deadline", 5*time.Second, "wall-clock budget")
	tick := fs.Duration("tick", 300*time.Microsecond, "tick interval per process")
	seed := fs.Int64("seed", 1, "seed for inputs, corruption, and delays")
	tel := cli.Bind(fs, cli.Metrics|cli.Events|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *crashes >= (*n+1)/2 {
		return fmt.Errorf("need crashes < n/2, got n=%d crashes=%d", *n, *crashes)
	}
	// Graceful on every path: the snapshot and event stream still land
	// on disk when the run is interrupted or misses its deadline.
	if err := tel.Open(os.Stdout); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()
	fmt.Printf("ftss-live: effective seed %d\n", *seed)

	crashAtVirtual := map[proc.ID]async.Time{}
	crashAfter := map[proc.ID]time.Duration{}
	var kills []chaos.Action // ascending At, as Apply requires
	for i := 0; i < *crashes; i++ {
		id := proc.ID(*n - 1 - i)
		after := time.Duration(30+20*i) * time.Millisecond
		crashAfter[id] = after
		crashAtVirtual[id] = async.Time(after / time.Microsecond)
		kills = append(kills, chaos.Action{At: after, Kind: chaos.ActKill, P: id})
	}
	weak := &detector.SimulatedWeak{
		N: *n, CrashAt: crashAtVirtual,
		AccuracyAt: async.Time(50 * time.Millisecond / time.Microsecond),
		Lag:        async.Time(5 * time.Millisecond / time.Microsecond),
		NoiseP:     0.2, SlanderP: 0.1, Seed: *seed,
	}

	inputs := ctcons.SeededInputs(*seed, *n)
	cs, aps := ctcons.Procs(*n, inputs, ctcons.Stabilizing(), weak)
	if *corrupt {
		crng := rand.New(rand.NewSource(*seed * 7))
		for _, c := range cs {
			c.Corrupt(crng)
		}
	}

	reg := obs.NewRegistry()
	if err := tel.Serve("", reg.Snapshot, nil); err != nil {
		return err
	}
	rt := live.MustNew(aps, live.Config{
		Seed:      *seed,
		TickEvery: *tick,
		MinDelay:  100 * time.Microsecond,
		MaxDelay:  500 * time.Microsecond,
		Obs:       live.NewInstruments(reg, "live", tel.Sink()),
	})
	fmt.Printf("live cluster: %d goroutines, inputs %v, crash schedule %v, corrupted=%v\n",
		*n, inputs, crashAfter, *corrupt)
	rt.Start()
	defer rt.Stop()
	rt.Apply(kills, nil)
	stop := cli.Shutdown("ftss-live")
	start := time.Now()
	var stableSince time.Time
	var lastVals []ctcons.Value
	for time.Since(start) < *deadline {
		select {
		case <-stop:
			fmt.Printf("interrupted after %v\n", time.Since(start).Round(time.Millisecond))
			fmt.Println(rt.Health())
			return fmt.Errorf("interrupted before stable agreement")
		case <-time.After(5 * time.Millisecond):
		}
		vals := make([]ctcons.Value, 0, *n)
		all := true
		for _, c := range cs {
			id := c.ID()
			if rt.Crashed().Has(id) {
				continue
			}
			var v ctcons.Value
			var decided bool
			if !rt.Inspect(id, func(p async.Proc) {
				v, _, decided = p.(*ctcons.Proc).Decision()
			}) {
				continue
			}
			if !decided {
				all = false
				break
			}
			vals = append(vals, v)
		}
		agree := all && len(vals) > 0
		for _, v := range vals {
			if v != vals[0] {
				agree = false
			}
		}
		if agree && equalVals(vals, lastVals) {
			if stableSince.IsZero() {
				stableSince = time.Now()
			} else if time.Since(stableSince) > 150*time.Millisecond {
				fmt.Printf("stable agreement on %d after %v of wall time\n",
					vals[0], time.Since(start).Round(time.Millisecond))
				fmt.Printf("crashed along the way: %v\n", rt.Crashed())
				fmt.Println(rt.Health())
				return nil
			}
		} else {
			stableSince = time.Time{}
		}
		lastVals = vals
	}
	return fmt.Errorf("no stable agreement within %v", *deadline)
}

func equalVals(a, b []ctcons.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
