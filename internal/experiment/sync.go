package experiment

import (
	"fmt"
	"math/rand"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

// E1RoundAgreement measures Figure 1 / Theorem 3: round agreement
// stabilizes in one round after the coterie stabilizes, for every system
// size, corruption, and general-omission adversary.
func E1RoundAgreement(cfg Config) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Figure 1 + Theorem 3: round agreement",
		Claim: "ftss-solves round agreement with stabilization time 1 round",
		Headers: []string{"n", "f", "seeds", "ftss-pass", "max-stab", "mean-stab",
			"paper-bound"},
		Notes: "stab = measured rounds from the final de-stabilizing event until " +
			"Assumption 1 holds through the horizon",
	}
	sigma := core.RoundAgreement{}
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for _, f := range []int{0, n / 4, n - 1} {
			if f < 0 || (f == 0 && n/4 == 0 && f != 0) {
				continue
			}
			type rep struct {
				pass bool
				stab int // measured stabilization; −1 if never
			}
			reps := runSeeds(cfg, func(seed int64) rep {
				faulty := proc.NewSet()
				for i := 0; i < f; i++ {
					faulty.Add(proc.ID((i*3 + int(seed)) % n))
				}
				adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.35, seed, uint64(cfg.Rounds/2))
				cs, ps := roundagree.Procs(n)
				rng := rand.New(rand.NewSource(seed * 97))
				for _, c := range cs {
					c.Corrupt(rng)
				}
				h := history.New(n, faulty)
				e := round.MustNewEngine(ps, adv)
				e.Observe(h)
				// The verdict accumulates while the engine runs: each
				// appended round costs O(delta).
				ic := core.NewIncrementalChecker(h, sigma, 1)
				e.Run(cfg.Rounds)

				return rep{pass: ic.Verdict() == nil, stab: ic.Measure().Rounds}
			})
			pass, maxStab, sumStab, measured := 0, 0, 0, 0
			for _, r := range reps {
				if r.pass {
					pass++
				}
				if r.stab >= 0 {
					measured++
					sumStab += r.stab
					if r.stab > maxStab {
						maxStab = r.stab
					}
				}
			}
			mean := 0.0
			if measured > 0 {
				mean = float64(sumStab) / float64(measured)
			}
			t.AddRow(n, f, cfg.Seeds,
				fmt.Sprintf("%d/%d", pass, cfg.Seeds),
				maxStab, fmt.Sprintf("%.2f", mean), 1)
		}
	}
	return t
}

// E2Theorem1 reproduces the Theorem 1 scenario: under the rejected
// Tentative Definition 1 no finite stabilization time works — the faulty
// process can delay revealing itself past any bound r — while the same
// histories satisfy piece-wise stability with stabilization time 1.
func E2Theorem1(cfg Config) *Table {
	t := &Table{
		ID:    "E2",
		Title: "Theorem 1: the tentative definition is unachievable",
		Claim: "∀ finite r there is a history violating Σ on the r-suffix; " +
			"the same history is fine under Definition 2.4",
		Headers: []string{"claimed-stab-r", "tentative-holds", "violating-round",
			"ftss(stab=1)-holds"},
		Notes: "2 processes, corrupted clocks, mutual silence for rounds 1..r " +
			"caused by the faulty process, then failure-free",
	}
	rows := runPoints(cfg, []int{1, 2, 4, 8, 16, 32}, func(r int) []any {
		adv := failure.NewScripted(1).SilenceBetween(1, 0, 1, uint64(r))
		cs, ps := roundagree.Procs(2)
		cs[0].CorruptTo(10)
		cs[1].CorruptTo(1_000_000)
		h := history.New(2, adv.Faulty())
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(r + 10)

		tentErr := core.CheckTentative(h, core.RoundAgreement{}, r)
		violRound := "-"
		if v, ok := tentErr.(*core.Violation); ok {
			violRound = fmt.Sprint(v.Round)
		}
		ftssErr := core.CheckFTSS(h, core.RoundAgreement{}, 1)
		return []any{r, tentErr == nil, violRound, ftssErr == nil}
	})
	for _, cells := range rows {
		t.AddRow(cells...)
	}
	return t
}

// E3Theorem2 reproduces the Theorem 2 two-scenario argument with the
// uniform (self-check-and-halt) round agreement protocol: the discipline
// that satisfies uniformity when the laggard is faulty necessarily halts a
// correct process in the indistinguishable corrupted execution.
func E3Theorem2(cfg Config) *Table {
	t := &Table{
		ID:    "E3",
		Title: "Theorem 2: uniform protocols cannot ftss-solve",
		Claim: "no round-based protocol restricting faulty behavior " +
			"(Assumption 2) ftss-solves any problem with finite stabilization",
		Headers: []string{"scenario", "p0-halted", "uniformity-holds", "Σ-ftss-holds"},
		Notes: "scenario 1: p0 faulty and silent; scenario 2: both correct, " +
			"clocks corrupted — locally indistinguishable to p0's self-check",
	}

	// Scenario 1: p0 faulty, never communicates. Its clock disagrees and it
	// never halts (no evidence): uniformity is violated.
	us := []*roundagree.Uniform{roundagree.NewUniformAt(0, 3), roundagree.NewUniformAt(1, 900)}
	adv := failure.NewScripted(0).SilenceBetween(0, 1, 1, uint64(cfg.Rounds))
	h := history.New(2, adv.Faulty())
	e := round.MustNewEngine([]round.Process{us[0], us[1]}, adv)
	e.Observe(h)
	e.Run(cfg.Rounds)
	uniOK := core.CheckFTSS(h, core.Uniformity{}, 1) == nil
	sigOK := core.CheckFTSS(h, core.And{core.RoundAgreement{}, core.Uniformity{}}, 1) == nil
	t.AddRow("1: p0 faulty+silent", us[0].Halted(), uniOK, sigOK)

	// Scenario 2: both correct, corrupted clocks. The self-check halts
	// correct p0 and agreement is violated forever.
	us = []*roundagree.Uniform{roundagree.NewUniformAt(0, 3), roundagree.NewUniformAt(1, 900)}
	h = history.New(2, proc.NewSet())
	e = round.MustNewEngine([]round.Process{us[0], us[1]}, nil)
	e.Observe(h)
	e.Run(cfg.Rounds)
	uniOK = core.CheckFTSS(h, core.Uniformity{}, 1) == nil
	sigOK = core.CheckFTSS(h, core.RoundAgreement{}, 1) == nil
	t.AddRow("2: both correct, corrupted", us[0].Halted(), uniOK, sigOK)
	return t
}

// E4Compiler measures Figures 2–3 / Theorem 4: the compiled Π⁺ ftss-solves
// repeated consensus with stabilization bounded by final_round, while the
// naive repetition of Π never recovers from corruption.
func E4Compiler(cfg Config) *Table {
	t := &Table{
		ID:    "E4",
		Title: "Figures 2–3 + Theorem 4: the compiler",
		Claim: "Π⁺ = compile(Π) ftss-solves Σ⁺ with stabilization ≤ final_round; " +
			"naive repetition never re-stabilizes",
		Headers: []string{"n", "f", "final_round", "seeds", "Π⁺-pass", "Π⁺-max-stab",
			"naive-pass", "paper-bound"},
		Notes: "Π = wavefront consensus (general omission, f<n); corruption of " +
			"every process at round 0; stab measured as in E1 against Σ⁺",
	}
	for _, nf := range []struct{ n, f int }{
		{3, 1}, {4, 1}, {5, 2}, {8, 3}, {12, 5}, {16, 7},
	} {
		pi := fullinfo.WavefrontConsensus{F: nf.f}
		in := superimpose.SeededInputs(int64(nf.n)*31+int64(nf.f), 1000)
		sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}

		type rep struct {
			pass, naivePass bool
			stab            int
		}
		reps := runSeeds(cfg, func(seed int64) rep {
			faulty := proc.NewSet()
			for i := 0; i < nf.f; i++ {
				faulty.Add(proc.ID((i*2 + int(seed)) % nf.n))
			}
			adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.3, seed, uint64(cfg.Rounds/2))

			// Compiled Π⁺.
			cs, ps := superimpose.Procs(pi, nf.n, in)
			rng := rand.New(rand.NewSource(seed * 13))
			for _, c := range cs {
				c.Corrupt(rng)
			}
			h := history.New(nf.n, faulty)
			e := round.MustNewEngine(ps, adv)
			e.Observe(h)
			ic := core.NewIncrementalChecker(h, sigma, pi.FinalRound())
			e.Run(cfg.Rounds)
			var r rep
			r.pass = ic.Verdict() == nil
			r.stab = ic.Measure().Rounds

			// Naive baseline.
			ns, nps := superimpose.NaiveProcs(pi, nf.n, in)
			rng = rand.New(rand.NewSource(seed * 13))
			for _, c := range ns {
				c.Corrupt(rng)
			}
			nh := history.New(nf.n, faulty)
			ne := round.MustNewEngine(nps, adv)
			ne.Observe(nh)
			nic := core.NewIncrementalChecker(nh, sigma, pi.FinalRound())
			ne.Run(cfg.Rounds)
			r.naivePass = nic.Verdict() == nil
			return r
		})
		pass, naivePass, maxStab := 0, 0, 0
		for _, r := range reps {
			if r.pass {
				pass++
			}
			if r.naivePass {
				naivePass++
			}
			if r.stab > maxStab {
				maxStab = r.stab
			}
		}
		t.AddRow(nf.n, nf.f, pi.FinalRound(), cfg.Seeds,
			fmt.Sprintf("%d/%d", pass, cfg.Seeds), maxStab,
			fmt.Sprintf("%d/%d", naivePass, cfg.Seeds), pi.FinalRound())
	}
	return t
}

// E9BoundedCounters demonstrates the bounded-counter failure the full
// paper's impossibility (analogous to Theorem 2) formalizes: the natural
// mod-K round agreement converges from within-half-window corruptions but
// spins forever on antipodal or cyclic ones, while the unbounded Figure 1
// protocol repairs every one of them in a single round.
func E9BoundedCounters(cfg Config) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Bounded counters (full-paper impossibility, §2.4 requirement 3)",
		Claim: "round agreement with a mod-K counter cannot ftss-solve: " +
			"corruptions beyond a half-window never re-converge",
		Headers: []string{"scenario", "K", "n", "bounded-converges", "unbounded-converges"},
		Notes: "bounded rule: adopt the Condorcet winner of the circular order; " +
			"convergence checked over 6·K rounds",
	}

	type scen struct {
		name   string
		k      uint64
		clocks []uint64
	}
	scens := []scen{
		{"half-window spread", 16, []uint64{3, 5, 7}},
		{"adjacent wrap", 16, []uint64{15, 0, 1}},
		{"antipodal pair", 12, []uint64{0, 6, 6}},
		{"cyclic thirds", 12, []uint64{0, 4, 8}},
		{"cyclic thirds (big K)", 48, []uint64{0, 16, 32}},
	}
	rows := runPoints(cfg, scens, func(sc scen) []any {
		n := len(sc.clocks)

		bs, bps := roundagree.BoundedProcs(n, sc.k)
		for i, c := range sc.clocks {
			bs[i].CorruptTo(c)
		}
		be := round.MustNewEngine(bps, nil)
		bConv := false
		for r := 0; r < int(sc.k)*6; r++ {
			be.Step()
			agreed := true
			for _, b := range bs[1:] {
				if b.Clock() != bs[0].Clock() {
					agreed = false
					break
				}
			}
			if agreed {
				bConv = true
				break
			}
		}

		us, ups := roundagree.Procs(n)
		for i, c := range sc.clocks {
			us[i].CorruptTo(c)
		}
		ue := round.MustNewEngine(ups, nil)
		ue.Step()
		uConv := true
		for _, u := range us[1:] {
			if u.Clock() != us[0].Clock() {
				uConv = false
			}
		}

		return []any{sc.name, sc.k, n, bConv, uConv}
	})
	for _, cells := range rows {
		t.AddRow(cells...)
	}
	return t
}

// E7AblationSuspects removes the suspect-set filter from Π⁺ and exhibits
// the §2.4 hazard: a faulty process one iteration behind injects a
// stale-iteration value that falsifies Σ⁺'s validity.
func E7AblationSuspects(cfg Config) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Ablation: the suspect set of Figure 3",
		Claim: "without message filtering, out-of-date messages from a stale " +
			"faulty process falsify Σ",
		Headers: []string{"variant", "seeds", "Σ⁺-pass"},
		Notes: "n=4, f=1; the faulty process's round variable is corrupted " +
			"exactly one iteration back, so it replays the previous " +
			"iteration's (smaller) inputs",
	}
	pi := fullinfo.WavefrontConsensus{F: 1}
	in := func(p proc.ID, iter uint64) fullinfo.Value {
		return fullinfo.Value(int64(iter)*100 + int64(p)) // older iterations are smaller
	}
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}

	run := func(filter bool) int {
		reps := runSeeds(cfg, func(seed int64) bool {
			// p3 is faulty with total receive omission: it hears only its
			// own broadcasts, so its round variable stays exactly one
			// iteration behind forever, replaying stale inputs.
			adv := failure.NewScripted(3)
			for r := uint64(1); r <= uint64(cfg.Rounds); r++ {
				for q := proc.ID(0); q < 3; q++ {
					adv.DropRecvAt(r, q, 3)
				}
			}
			cs, ps := superimpose.Procs(pi, 4, in)
			for _, c := range cs {
				c.SetSuspectFilter(filter)
			}
			// p3 one full iteration behind, phase-aligned; seeds shift the
			// starting iteration.
			base := uint64(pi.FinalRound()) * uint64(4+seed%6)
			cs[3].CorruptTo(base - uint64(pi.FinalRound()))
			for i := 0; i < 3; i++ {
				cs[i].CorruptTo(base)
			}
			h := history.New(4, adv.Faulty())
			e := round.MustNewEngine(ps, adv)
			e.Observe(h)
			ic := core.NewIncrementalChecker(h, sigma, pi.FinalRound())
			e.Run(cfg.Rounds)
			return ic.Verdict() == nil
		})
		pass := 0
		for _, ok := range reps {
			if ok {
				pass++
			}
		}
		return pass
	}
	t.AddRow("Π⁺ (filter on)", cfg.Seeds, fmt.Sprintf("%d/%d", run(true), cfg.Seeds))
	t.AddRow("Π⁺ w/o suspects", cfg.Seeds, fmt.Sprintf("%d/%d", run(false), cfg.Seeds))
	return t
}
