// Command ftss-exp regenerates the paper-reproduction experiment tables
// (E1–E15, one per figure/theorem of Gopal & Perry PODC '93). See
// EXPERIMENTS.md for the recorded outputs and DESIGN.md for the index.
//
// Usage:
//
//	ftss-exp [-exp all|E1|…|E15] [-seed BASE] [-seeds N] [-rounds N] [-horizon MS]
//	         [-workers N] [-markdown] [-metrics FILE] [-events FILE]
//
// -metrics and -events write the run's telemetry (instrument snapshot and
// JSONL event stream). Both are byte-identical for any -workers value:
// instruments record only after the worker pool merges repetition results
// in seed order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftss/internal/cli"
	"ftss/internal/experiment"
	"ftss/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-exp:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ftss-exp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, or one of E1..E15")
	seed := fs.Int64("seed", 0, "base seed; repetitions use seed+1..seed+seeds")
	seeds := fs.Int("seeds", experiment.DefaultConfig().Seeds, "random repetitions per parameter point")
	rounds := fs.Int("rounds", experiment.DefaultConfig().Rounds, "synchronous run length (rounds)")
	horizon := fs.Int("horizon", experiment.DefaultConfig().HorizonMS, "asynchronous run length (virtual ms)")
	workers := fs.Int("workers", 0, "repetitions run concurrently; 0 = GOMAXPROCS. "+
		"Tables are byte-identical for any value, so -workers 1 exactly "+
		"reproduces the committed EXPERIMENTS.md tables")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown instead of aligned text")
	// Both files are byte-identical for any -workers.
	tel := cli.Bind(fs, cli.Metrics|cli.Events)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Open(os.Stdout); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()

	cfg := experiment.Config{Seeds: *seeds, Rounds: *rounds, HorizonMS: *horizon, BaseSeed: *seed, Workers: *workers,
		Events: tel.Sink()}
	if tel.HasMetrics() {
		cfg.Metrics = obs.NewRegistry()
		if err := tel.Serve("", cfg.Metrics.Snapshot, nil); err != nil {
			return err
		}
	}
	fmt.Printf("ftss-exp: effective seeds %d..%d\n", cfg.BaseSeed+1, cfg.BaseSeed+int64(cfg.Seeds))
	runners := map[string]func(experiment.Config) *experiment.Table{
		"E1":  experiment.E1RoundAgreement,
		"E2":  experiment.E2Theorem1,
		"E3":  experiment.E3Theorem2,
		"E4":  experiment.E4Compiler,
		"E5":  experiment.E5DetectorTransform,
		"E6":  experiment.E6AsyncConsensus,
		"E7":  experiment.E7AblationSuspects,
		"E8":  experiment.E8AblationResend,
		"E9":  experiment.E9BoundedCounters,
		"E10": experiment.E10ImperfectSynchrony,
		"E11": experiment.E11StabilizationCost,
		"E12": experiment.E12ParameterSweep,
		"E13": experiment.E13RepeatedAsyncConsensus,
		"E14": experiment.E14NScaling,
		"E15": experiment.E15ShardScaling,
	}

	var tables []*experiment.Table
	switch which := strings.ToUpper(*exp); which {
	case "ALL":
		tables = experiment.All(cfg)
	default:
		r, ok := runners[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want all or E1..E15)", *exp)
		}
		tables = []*experiment.Table{r(cfg)}
	}

	for _, t := range tables {
		if *markdown {
			fmt.Print(t.Markdown())
		} else {
			t.Render(os.Stdout)
		}
	}
	return nil
}
