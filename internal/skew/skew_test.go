package skew

import (
	"math/rand"
	"testing"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

// alwaysLate delays every message from a to b, forever.
type alwaysLate struct{ a, b proc.ID }

func (l alwaysLate) Late(_ uint64, from, to proc.ID) bool {
	return from == l.a && to == l.b
}

// lagged builds the synchronous engine with a lag schedule attached.
func lagged(ps []round.Process, adv failure.Adversary, lag round.Lag) *round.Engine {
	e := round.MustNewEngine(ps, adv)
	e.SetLag(lag)
	return e
}

func TestLateDeliveryArrivesNextRound(t *testing.T) {
	// p0's clock is high; its message to p1 is always late, so p1 adopts
	// one round later than p2.
	cs, ps := roundagree.Procs(3)
	cs[0].CorruptTo(100)
	e := lagged(ps, nil, alwaysLate{a: 0, b: 1})
	e.Step()
	if cs[2].Clock() != 101 {
		t.Errorf("p2 clock = %d, want 101 (on-time adoption)", cs[2].Clock())
	}
	if cs[1].Clock() != 2 {
		t.Errorf("p1 clock = %d, want 2 (p0's 100 is in flight)", cs[1].Clock())
	}
	e.Step()
	// p1 now sees the late 100 and p2's on-time 101.
	if cs[1].Clock() != 102 {
		t.Errorf("p1 clock after catch-up = %d, want 102", cs[1].Clock())
	}
}

func TestEqualityIsAbsorbing(t *testing.T) {
	// Once all clocks are equal, arbitrary lag cannot break the agreement:
	// self-delivery keeps every max at least the common value.
	cs, ps := roundagree.Procs(4)
	e := lagged(ps, nil, RandomLag{P: 0.9, Seed: 5})
	e.Run(30)
	want := cs[0].Clock()
	for _, c := range cs {
		if c.Clock() != want {
			t.Fatalf("equal clocks diverged under lag: %d vs %d", c.Clock(), want)
		}
	}
}

// TestAdversarialLagHoldsOneGapForever is the counterexample showing exact
// round agreement is unattainable under imperfect synchrony: a permanently
// late link keeps the receiver exactly one behind.
func TestAdversarialLagHoldsOneGapForever(t *testing.T) {
	cs, ps := roundagree.Procs(2)
	cs[0].CorruptTo(50)
	cs[1].CorruptTo(1)
	h := history.New(2, proc.NewSet())
	e := lagged(ps, nil, alwaysLate{a: 0, b: 1})
	e.Observe(h)
	e.Run(40)

	if cs[0].Clock() == cs[1].Clock() {
		t.Fatal("clocks unexpectedly equal under the adversarial lag")
	}
	if gap := cs[0].Clock() - cs[1].Clock(); gap != 1 {
		t.Fatalf("gap = %d, want exactly 1", gap)
	}
	// Exact agreement (Assumption 1) is violated forever...
	if err := core.CheckFTSS(h, core.RoundAgreement{}, 2); err == nil {
		t.Error("exact agreement should fail under adversarial lag")
	}
	// ...but agreement within skew 1 holds from shortly after the start.
	if err := core.Check(AgreementWithinSkew{Skew: 1}, h, 3, 40, proc.NewSet()); err != nil {
		t.Errorf("within-skew agreement violated: %v", err)
	}
}

// TestRandomLagReachesExactAgreement: with probabilistic lag, Figure 1
// re-converges to exact agreement after corruption (equality is absorbing,
// and every round offers an on-time path with positive probability).
func TestRandomLagReachesExactAgreement(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cs, ps := roundagree.Procs(4)
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(4, proc.NewSet())
		e := lagged(ps, nil, RandomLag{P: 0.4, Seed: seed})
		e.Observe(h)
		e.Run(30)

		want := cs[0].Clock()
		for _, c := range cs {
			if c.Clock() != want {
				t.Fatalf("seed=%d: clocks not equal after 30 lagged rounds", seed)
			}
		}
		m := core.MeasureStabilization(h, core.RoundAgreement{})
		if m.Rounds < 0 {
			t.Fatalf("seed=%d: never stabilized", seed)
		}
		if m.Rounds > 10 {
			t.Errorf("seed=%d: stabilization took %d rounds, suspiciously long", seed, m.Rounds)
		}
	}
}

func TestWithinSkewPredicate(t *testing.T) {
	// Build a tiny history with no lag attached and check the
	// degenerate and violated cases.
	cs, ps := roundagree.Procs(2)
	cs[0].CorruptTo(10)
	cs[1].CorruptTo(13)
	h := history.New(2, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(5)

	// Round 1 spread is 3 > 1.
	if err := core.Check(AgreementWithinSkew{Skew: 1}, h, 1, 1, proc.NewSet()); err == nil {
		t.Error("spread 3 should violate skew 1")
	}
	if err := core.Check(AgreementWithinSkew{Skew: 3}, h, 1, 1, proc.NewSet()); err != nil {
		t.Errorf("spread 3 within skew 3: %v", err)
	}
	// After convergence, skew 0 (= exact agreement) holds.
	if err := core.Check(AgreementWithinSkew{Skew: 0}, h, 2, 5, proc.NewSet()); err != nil {
		t.Errorf("post-convergence exact check: %v", err)
	}
}

// TestCompiledUnderRandomLag is the headline adaptation result: the
// double-stepped Π⁺ ftss-solves repeated consensus under a lag schedule,
// from corrupted states, with omission failures, checkable by the standard
// Σ⁺ with doubled tiles.
func TestCompiledUnderRandomLag(t *testing.T) {
	pi := fullinfo.WavefrontConsensus{F: 1}
	in := superimpose.SeededInputs(9, 300)
	sigma := superimpose.RepeatedConsensus{FinalRound: TileWidth(pi), Inputs: in}
	for seed := int64(1); seed <= 15; seed++ {
		faulty := proc.NewSet(proc.ID(int(seed) % 4))
		adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.3, seed, 25)
		cs, ps := Procs(pi, 4, in)
		rng := rand.New(rand.NewSource(seed * 11))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(4, faulty)
		e := lagged(ps, adv, RandomLag{P: 0.35, Seed: seed})
		e.Observe(h)
		e.Run(60)

		// Generous stabilization: clock convergence under random lag is
		// probabilistic (bounded for these fixed seeds).
		if err := core.CheckFTSS(h, sigma, 12); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestCompiledCleanRunUnderLag(t *testing.T) {
	pi := fullinfo.WavefrontConsensus{F: 1}
	in := superimpose.ConstantInputs([]fullinfo.Value{8, 3, 5})
	cs, ps := Procs(pi, 3, in)
	e := lagged(ps, nil, RandomLag{P: 0.5, Seed: 2})
	e.Run(4 * TileWidth(pi)) // four iterations

	for _, c := range cs {
		d, ok := c.LastDecision()
		if !ok || !d.OK {
			t.Fatalf("%v has no decision", c.ID())
		}
		if d.Value != 3 {
			t.Errorf("%v decided %d, want 3", c.ID(), d.Value)
		}
		if d.Iteration != 3 {
			t.Errorf("%v iteration = %d, want 3", c.ID(), d.Iteration)
		}
	}
}

func TestCompiledAccessorsAndCorrupt(t *testing.T) {
	pi := fullinfo.WavefrontConsensus{F: 1}
	p := New(pi, 1, 3, superimpose.ConstantInputs([]fullinfo.Value{1, 2, 3}))
	if p.ID() != 1 || p.Clock() != 0 {
		t.Error("accessors wrong")
	}
	if _, ok := p.LastDecision(); ok {
		t.Error("fresh process has no decision")
	}
	if p.StartRound() == nil {
		t.Error("must broadcast")
	}
	snap := p.Snapshot()
	if _, ok := snap.State.(superimpose.Meta); !ok {
		t.Error("snapshot meta missing")
	}
	rng := rand.New(rand.NewSource(3))
	p.Corrupt(rng)
	if p.Clock() >= superimpose.MaxCorruptClock {
		t.Error("corrupted clock out of bounds")
	}
}

// TestPendingToCrashedDropped: a late message to a process that crashes
// before delivery vanishes (the receiver is gone).
func TestPendingToCrashedDropped(t *testing.T) {
	adv := failure.NewScripted(1).CrashAt(1, 2)
	cs, ps := roundagree.Procs(2)
	cs[0].CorruptTo(100)
	e := lagged(ps, adv, alwaysLate{a: 0, b: 1})
	e.Run(3) // p1 crashes at round 2; the late 100 never reaches it
	if cs[1].Clock() >= 100 {
		t.Error("crashed process received a late message")
	}
}
