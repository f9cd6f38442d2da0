// Imperfect synchrony: the §3 opening claim, executably.
//
// "Both the protocol for round agreement and the 'compiler' for perfectly
// synchronous systems readily adapt to synchronous, but not perfectly
// synchronized systems."
//
// This example runs three scenarios on the synchronous round engine with a
// lag schedule attached (broadcasts may arrive one round late):
//
//  1. Figure 1 under random lag — unchanged protocol text, exact
//     agreement re-reached after corruption (equality is absorbing).
//  2. Figure 1 under an adversarial permanently-late link — exact
//     agreement is unattainable (a 1-gap survives forever), which is why
//     the adapted problem statement is agreement-within-skew.
//  3. The double-stepped compiler: repeated consensus over 2-round
//     windows, corrupted start, omission failures, verified by the
//     standard Σ⁺ checker with doubled tiles.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
	"ftss/internal/skew"
	"ftss/internal/superimpose"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imperfectsync:", err)
		os.Exit(1)
	}
}

// lateLink is a round.Lag that delays every from→to message, forever.
type lateLink struct{ from, to proc.ID }

func (l lateLink) Late(_ uint64, f, t proc.ID) bool { return f == l.from && t == l.to }

func run() error {
	// Scenario 1: random lag, corrupted clocks.
	fmt.Println("1) Figure 1 under 40% random lag, corrupted clocks")
	cs, ps := roundagree.Procs(4)
	rng := rand.New(rand.NewSource(7))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	h := history.New(4, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.SetLag(skew.RandomLag{P: 0.4, Seed: 7})
	e.Observe(h)
	e.Run(20)
	m := core.MeasureStabilization(h, core.RoundAgreement{})
	fmt.Printf("   exact agreement re-reached %d round(s) after the event (perfect synchrony: 1)\n\n", m.Rounds)

	// Scenario 2: adversarial lag.
	fmt.Println("2) Figure 1 with a permanently late p0→p1 link")
	cs, ps = roundagree.Procs(2)
	cs[0].CorruptTo(50)
	cs[1].CorruptTo(1)
	h = history.New(2, proc.NewSet())
	e = round.MustNewEngine(ps, nil)
	e.SetLag(lateLink{from: 0, to: 1})
	e.Observe(h)
	e.Run(30)
	fmt.Printf("   after 30 rounds: c_p0=%d, c_p1=%d — a 1-gap forever\n", cs[0].Clock(), cs[1].Clock())
	within := core.Check(skew.AgreementWithinSkew{Skew: 1}, h, 3, 30, proc.NewSet())
	fmt.Printf("   exact agreement: unattainable; agreement-within-1: satisfied=%v\n\n", within == nil)

	// Scenario 3: the adapted compiler.
	fmt.Println("3) Double-stepped compiler: repeated consensus over 2-round windows")
	pi := fullinfo.WavefrontConsensus{F: 1}
	in := superimpose.SeededInputs(3, 100)
	cps, eps := skew.Procs(pi, 4, in)
	rng = rand.New(rand.NewSource(3))
	for _, c := range cps {
		c.Corrupt(rng)
	}
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(2), 0.3, 3, 0)
	h = history.New(4, adv.Faulty())
	e = round.MustNewEngine(eps, adv)
	e.SetLag(skew.RandomLag{P: 0.35, Seed: 3})
	e.Observe(h)
	e.Run(50)

	sigma := superimpose.RepeatedConsensus{FinalRound: skew.TileWidth(pi), Inputs: in}
	if err := core.CheckFTSS(h, sigma, 12); err != nil {
		return fmt.Errorf("adapted compiler failed: %w", err)
	}
	d, _ := cps[0].LastDecision()
	fmt.Printf("   Σ⁺ satisfied under lag+omissions+corruption; latest decision %d for iteration %d\n",
		d.Value, d.Iteration)
	return nil
}
