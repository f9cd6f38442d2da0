package experiment

import (
	"fmt"
	"math/rand"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

// e14Widths is E14's sweep. Nothing outside tests writes it: the
// worker-invariance tests trim it to the two narrow widths, because
// invariance does not depend on n and the n = 1024 row costs ~20 s a run.
var e14Widths = []int{16, 64, 256, 1024}

// E14NScaling scales the full verification pipeline — round agreement under
// a general-omission adversary, the compiled wavefront consensus Π⁺, and
// the Definition 2.4 checker over the recorded histories — to production
// system widths. The paper's bounds are width-independent (stabilization 1
// for Figure 1, final_round for Theorem 4); what changes with n is the cost
// of the causal algebra, which the word-packed proc.Set keeps at
// ⌈n/64⌉ words per influence/coterie operation. The set-words column makes
// that representation cost explicit.
//
// To keep the work budget roughly constant per row, seed counts scale down
// as n grows and the round-agreement run length is capped for the widest
// systems; the compiled leg runs a fixed protocol depth (F = 3, so
// final_round = 4) at every width so only the causal algebra scales.
func E14NScaling(cfg Config) *Table {
	t := &Table{
		ID:    "E14",
		Title: "n-scaling: the verification pipeline at production widths",
		Claim: "round agreement (stab 1) and Π⁺ = compile(wavefront) " +
			"(stab ≤ final_round) hold unchanged from n = 16 to n = 1024",
		Headers: []string{"n", "set-words", "seeds", "f-agree", "ra-rounds",
			"agree-pass", "agree-max-stab", "f-wf", "wf-rounds",
			"compiled-pass", "compiled-max-stab"},
		Notes: "seed counts scale down with n for a constant work budget; " +
			"the compiled leg fixes F = 3 (final_round 4) so protocol depth " +
			"is width-independent and only the causal algebra scales with n",
	}
	raSigma := core.RoundAgreement{}
	pi := fullinfo.WavefrontConsensus{F: 3}
	for _, n := range e14Widths {
		cfgRow := cfg
		cfgRow.Seeds = cfg.Seeds * 16 / n
		if cfgRow.Seeds < 1 {
			cfgRow.Seeds = 1
		}
		raRounds := cfg.Rounds
		if lim := 8192 / n; raRounds > lim {
			raRounds = lim
		}
		wfRounds := cfg.Rounds
		if wfRounds > 3*pi.FinalRound() {
			wfRounds = 3 * pi.FinalRound()
		}
		fAgree := n / 4
		fWF := pi.F
		in := superimpose.SeededInputs(int64(n)*31+int64(fWF), 1000)
		wfSigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}

		type rep struct {
			agreePass, wfPass bool
			agreeStab, wfStab int
		}
		reps := runSeeds(cfgRow, func(seed int64) rep {
			var r rep

			// Leg 1: Figure 1 round agreement, corrupted start, omission
			// adversary over the first half of the run.
			faulty := proc.NewSet()
			for i := 0; i < fAgree; i++ {
				faulty.Add(proc.ID((i*3 + int(seed)) % n))
			}
			adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.35, seed, uint64(raRounds/2))
			cs, ps := roundagree.Procs(n)
			rng := rand.New(rand.NewSource(seed * 97))
			for _, c := range cs {
				c.Corrupt(rng)
			}
			h := history.New(n, faulty)
			e := round.MustNewEngine(ps, adv)
			e.Observe(h)
			ic := core.NewIncrementalChecker(h, raSigma, 1)
			e.Run(raRounds)
			r.agreePass = ic.Verdict() == nil
			r.agreeStab = ic.Measure().Rounds

			// Leg 2: compiled wavefront consensus, everyone corrupted at
			// round 0, f = F omission-faulty processes.
			wfFaulty := proc.NewSet()
			for i := 0; i < fWF; i++ {
				wfFaulty.Add(proc.ID((i*2 + int(seed)) % n))
			}
			wfAdv := failure.NewRandom(failure.GeneralOmission, wfFaulty, 0.3, seed, uint64(wfRounds/2))
			ws, wps := superimpose.Procs(pi, n, in)
			wrng := rand.New(rand.NewSource(seed * 13))
			for _, c := range ws {
				c.Corrupt(wrng)
			}
			wh := history.New(n, wfFaulty)
			we := round.MustNewEngine(wps, wfAdv)
			we.Observe(wh)
			wic := core.NewIncrementalChecker(wh, wfSigma, pi.FinalRound())
			we.Run(wfRounds)
			r.wfPass = wic.Verdict() == nil
			r.wfStab = wic.Measure().Rounds
			return r
		})
		agreePass, wfPass, agreeMax, wfMax := 0, 0, 0, 0
		for _, r := range reps {
			if r.agreePass {
				agreePass++
			}
			if r.wfPass {
				wfPass++
			}
			if r.agreeStab > agreeMax {
				agreeMax = r.agreeStab
			}
			if r.wfStab > wfMax {
				wfMax = r.wfStab
			}
			cfg.observeStab("e14.agree_stab_rounds", r.agreeStab)
			cfg.observeStab("e14.wf_stab_rounds", r.wfStab)
		}
		cfg.emitPoint("e14_point", uint64(n),
			obs.KV{K: "seeds", V: int64(cfgRow.Seeds)},
			obs.KV{K: "ra_rounds", V: int64(raRounds)},
			obs.KV{K: "wf_rounds", V: int64(wfRounds)},
			obs.KV{K: "agree_pass", V: int64(agreePass)},
			obs.KV{K: "agree_max_stab", V: int64(agreeMax)},
			obs.KV{K: "wf_pass", V: int64(wfPass)},
			obs.KV{K: "wf_max_stab", V: int64(wfMax)})
		t.AddRow(n, (n+63)/64, cfgRow.Seeds, fAgree, raRounds,
			fmt.Sprintf("%d/%d", agreePass, cfgRow.Seeds), agreeMax,
			fWF, wfRounds,
			fmt.Sprintf("%d/%d", wfPass, cfgRow.Seeds), wfMax)
	}
	return t
}
