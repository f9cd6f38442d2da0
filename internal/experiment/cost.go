package experiment

import (
	"fmt"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// E11StabilizationCost is a supplementary measurement with no paper
// counterpart: what the §3 mechanisms cost in messages. The stabilizing
// protocol re-sends its phase messages and gossips decisions on every
// step, so it pays a steady message tax for its recovery guarantee; the
// baseline sends each message once. The table reports messages sent until
// the decision registers first agree (clean starts, so both variants
// succeed), and the tax ratio.
func E11StabilizationCost(cfg Config) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Supplementary: the message cost of stabilization",
		Claim: "no paper counterpart — quantifies the re-send/gossip overhead " +
			"that buys recovery from arbitrary states",
		Headers: []string{"n", "f", "seeds", "baseline-msgs", "stabilizing-msgs", "ratio"},
		Notes: "messages counted until the first sample at which every correct " +
			"process holds the common decision; clean starts; means over seeds",
	}
	for _, n := range []int{3, 5, 7, 9} {
		f := (n - 1) / 2
		type rep struct {
			base, stab uint64
			ok         bool
		}
		reps := runSeeds(cfg, func(seed int64) rep {
			crashAt := map[proc.ID]async.Time{}
			for i := 0; i < f; i++ {
				crashAt[proc.ID(n-1-i)] = async.Time(15+9*i) * ms
			}
			inputs := ctcons.SeededInputs(seed, n)
			run := func(c ctcons.Config) (uint64, bool) {
				cs, aps := ctcons.Procs(n, inputs, c, weakFor(n, crashAt, seed))
				e := async.MustNewEngine(aps, async.Config{
					Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms,
					CrashAt: crashAt,
				})
				horizon := async.Time(cfg.HorizonMS) * ms
				for e.Now() < horizon {
					e.RunFor(5 * ms)
					if agreed(cs, e.Correct()) {
						return e.MessagesSent(), true
					}
				}
				return e.MessagesSent(), false
			}
			b, okB := run(ctcons.Baseline())
			s, okS := run(ctcons.Stabilizing())
			return rep{base: b, stab: s, ok: okB && okS}
		})
		var base, stab uint64
		counted := 0
		for _, r := range reps {
			if r.ok {
				base += r.base
				stab += r.stab
				counted++
			}
		}
		if counted == 0 {
			t.AddRow(n, f, cfg.Seeds, "-", "-", "-")
			continue
		}
		mb := base / uint64(counted)
		msn := stab / uint64(counted)
		t.AddRow(n, f, cfg.Seeds, mb, msn, fmt.Sprintf("%.1fx", float64(msn)/float64(mb)))
	}
	return t
}

func agreed(cs []*ctcons.Proc, correct proc.Set) bool {
	var common ctcons.Value
	first := true
	for _, c := range cs {
		if !correct.Has(c.ID()) {
			continue
		}
		v, _, ok := c.Decision()
		if !ok {
			return false
		}
		if first {
			common, first = v, false
		} else if v != common {
			return false
		}
	}
	return !first
}

// detectorMessageRate is used by the E11 bench to sanity-check the
// Figure 4 transform's fixed n² per-tick traffic.
func detectorMessageRate(n int, ticks int, seed int64) uint64 {
	weak := &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: seed}
	aps := make([]async.Proc, n)
	for i := 0; i < n; i++ {
		aps[i] = detector.NewProc(proc.ID(i), n, weak)
	}
	e := async.MustNewEngine(aps, async.Config{Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: ms})
	e.RunUntil(async.Time(ticks) * ms)
	return e.MessagesSent()
}
