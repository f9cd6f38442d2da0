package experiment

import (
	"fmt"
	"math/rand"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

const ms = async.Millisecond

func weakFor(n int, crashAt map[proc.ID]async.Time, seed int64) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{
		N:          n,
		CrashAt:    crashAt,
		AccuracyAt: 30 * ms,
		Lag:        3 * ms,
		NoiseP:     0.25,
		SlanderP:   0.15,
		Seed:       seed,
	}
}

// E5DetectorTransform measures Figure 4 / Theorem 5: the ◊W→◊S transform
// satisfies strong completeness and eventual weak accuracy from arbitrary
// initial states, under crash failures.
func E5DetectorTransform(cfg Config) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Figure 4 + Theorem 5: ◊W → ◊S, initialization-free",
		Claim: "from any initial state, the output detector is eventually " +
			"strongly complete and eventually weakly accurate",
		Headers: []string{"n", "crashes", "corrupted", "seeds", "◊S-pass",
			"mean-stab-ms", "max-stab-ms"},
		Notes: "stab = virtual time until both axioms hold permanently; the " +
			"simulated ◊W turns accurate at t=30ms and slanders non-anchor " +
			"correct processes forever",
	}
	horizon := async.Time(cfg.HorizonMS) * ms
	for _, n := range []int{3, 5, 7, 9} {
		for _, crashes := range []int{0, 1, n - 1} {
			for _, corrupted := range []bool{false, true} {
				type rep struct {
					pass bool
					stab async.Time
				}
				reps := runSeeds(cfg, func(seed int64) rep {
					crashAt := map[proc.ID]async.Time{}
					for i := 0; i < crashes; i++ {
						crashAt[proc.ID(n-1-i)] = async.Time(10+7*i) * ms
					}
					weak := weakFor(n, crashAt, seed)
					procs := make([]*detector.Proc, n)
					aps := make([]async.Proc, n)
					var srcs []detector.SuspectSource
					correct := proc.NewSet()
					for i := 0; i < n; i++ {
						procs[i] = detector.NewProc(proc.ID(i), n, weak)
						aps[i] = procs[i]
					}
					for i := 0; i < n; i++ {
						if _, dies := crashAt[proc.ID(i)]; !dies {
							correct.Add(proc.ID(i))
							srcs = append(srcs, procs[i])
						}
					}
					if corrupted {
						rng := rand.New(rand.NewSource(seed * 11))
						for _, p := range procs {
							p.Corrupt(rng)
						}
					}
					e := async.MustNewEngine(aps, async.Config{
						Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms,
						CrashAt: crashAt,
					})
					samples := detector.SampleRun(e, srcs, 3*ms, horizon)
					out, err := detector.VerifyEventuallyStrong(samples, correct, crashAt, 30*ms)
					if err != nil {
						return rep{}
					}
					return rep{pass: true, stab: out.StabilizedFrom()}
				})
				pass := 0
				var sumStab, maxStab async.Time
				for _, r := range reps {
					if !r.pass {
						continue
					}
					pass++
					sumStab += r.stab
					if r.stab > maxStab {
						maxStab = r.stab
					}
				}
				mean := async.Time(0)
				if pass > 0 {
					mean = sumStab / async.Time(pass)
				}
				t.AddRow(n, crashes, corrupted, cfg.Seeds,
					fmt.Sprintf("%d/%d", pass, cfg.Seeds),
					int64(mean/ms), int64(maxStab/ms))
			}
		}
	}
	return t
}

// E6AsyncConsensus measures §3's consensus: the stabilizing protocol
// reaches eventual stable agreement from arbitrary states with f < n/2
// crashes; the baseline [CT91] fails from corrupted states.
func E6AsyncConsensus(cfg Config) *Table {
	t := &Table{
		ID:    "E6",
		Title: "§3: self-stabilizing ◊S-consensus vs. plain [CT91]",
		Claim: "the superimposed protocol reaches eventual stable agreement " +
			"from arbitrary initial states; plain [CT91] does not",
		Headers: []string{"n", "f", "corrupted", "seeds", "stabilizing-pass",
			"baseline-pass", "mean-stable-ms"},
		Notes: "pass = all correct processes hold equal, unchanging decisions " +
			"by the horizon; baseline rows with corruption show the failure " +
			"the paper's mechanisms repair",
	}
	horizon := async.Time(cfg.HorizonMS) * ms
	for _, n := range []int{3, 5, 7, 9} {
		f := (n - 1) / 2
		for _, corrupted := range []bool{false, true} {
			type rep struct {
				stabPass, basePass bool
				stable             async.Time
			}
			reps := runSeeds(cfg, func(seed int64) rep {
				crashAt := map[proc.ID]async.Time{}
				for i := 0; i < f; i++ {
					crashAt[proc.ID(n-1-i)] = async.Time(15+9*i) * ms
				}
				inputs := ctcons.SeededInputs(seed, n)

				run := func(c ctcons.Config) (bool, async.Time) {
					cs, aps := ctcons.Procs(n, inputs, c, weakFor(n, crashAt, seed))
					e := async.MustNewEngine(aps, async.Config{
						Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms,
						CrashAt: crashAt,
					})
					if corrupted {
						crng := rand.New(rand.NewSource(seed * 3))
						for _, p := range cs {
							p.Corrupt(crng)
						}
					}
					samples := ctcons.SampleDecisions(e, cs, 5*ms, horizon)
					out, err := ctcons.VerifyStableAgreement(samples, e.Correct())
					return err == nil, out.StableFrom
				}

				var rp rep
				if ok, st := run(ctcons.Stabilizing()); ok {
					rp.stabPass = true
					rp.stable = st
				}
				ok, _ := run(ctcons.Baseline())
				rp.basePass = ok
				return rp
			})
			stabPass, basePass := 0, 0
			var sumStable async.Time
			for _, r := range reps {
				if r.stabPass {
					stabPass++
					sumStable += r.stable
				}
				if r.basePass {
					basePass++
				}
			}
			mean := async.Time(0)
			if stabPass > 0 {
				mean = sumStable / async.Time(stabPass)
			}
			t.AddRow(n, f, corrupted, cfg.Seeds,
				fmt.Sprintf("%d/%d", stabPass, cfg.Seeds),
				fmt.Sprintf("%d/%d", basePass, cfg.Seeds),
				int64(mean/ms))
		}
	}
	return t
}

// E8AblationResend disables only the periodic re-send (mechanism 1) and
// reproduces the deadlock that [KP90]'s technique prevents: a corrupted
// "already sent" flag plus a never-suspected coordinator stalls forever.
func E8AblationResend(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Ablation: periodic re-send (§3 mechanism 1)",
		Claim: "without re-send, a corrupted initial state that falsely marks " +
			"messages as sent deadlocks the protocol",
		Headers: []string{"variant", "seeds", "stable-agreement", "decided-any"},
		Notes: "n=3, no crashes, quiet ◊W (never suspects — legal), every " +
			"process's sent-estimate flag corrupted to true",
	}
	quiet := &detector.SimulatedWeak{N: 3, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: 1}
	horizon := async.Time(cfg.HorizonMS) * ms

	run := func(c ctcons.Config) (int, int) {
		type rep struct {
			pass, decided bool
		}
		reps := runSeeds(cfg, func(seed int64) rep {
			inputs := []ctcons.Value{1, 2, 3}
			cs, aps := ctcons.Procs(3, inputs, c, quiet)
			e := async.MustNewEngine(aps, async.Config{
				Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms,
			})
			for _, p := range cs {
				p.CorruptSentFlags()
			}
			samples := ctcons.SampleDecisions(e, cs, 5*ms, horizon)
			var rp rep
			if _, err := ctcons.VerifyStableAgreement(samples, proc.Universe(3)); err == nil {
				rp.pass = true
			}
			for _, p := range cs {
				if _, _, ok := p.Decision(); ok {
					rp.decided = true
					break
				}
			}
			return rp
		})
		pass, decidedAny := 0, 0
		for _, r := range reps {
			if r.pass {
				pass++
			}
			if r.decided {
				decidedAny++
			}
		}
		return pass, decidedAny
	}

	full := ctcons.Stabilizing()
	p1, d1 := run(full)
	t.AddRow("all mechanisms", cfg.Seeds, fmt.Sprintf("%d/%d", p1, cfg.Seeds), d1)

	noResend := ctcons.Stabilizing()
	noResend.Resend = false
	p2, d2 := run(noResend)
	t.AddRow("re-send disabled", cfg.Seeds, fmt.Sprintf("%d/%d", p2, cfg.Seeds), d2)
	return t
}
