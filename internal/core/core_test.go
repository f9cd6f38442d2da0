package core

import (
	"errors"
	"math/rand"
	"testing"

	"ftss/internal/failure"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
)

func runAgree(t *testing.T, n int, adv failure.Adversary, rounds int,
	setup func(e *round.Engine, cs []*roundagree.Proc)) *history.History {
	t.Helper()
	cs, ps := roundagree.Procs(n)
	var faulty proc.Set
	if adv != nil {
		faulty = adv.Faulty()
	}
	h := history.New(n, faulty)
	e := round.MustNewEngine(ps, adv)
	if setup != nil {
		setup(e, cs)
	}
	e.Observe(h)
	e.Run(rounds)
	return h
}

func TestRoundAgreementHoldsOnCleanRun(t *testing.T) {
	h := runAgree(t, 3, nil, 10, nil)
	if err := Check(RoundAgreement{}, h, 1, 10, proc.NewSet()); err != nil {
		t.Errorf("clean run should satisfy Assumption 1: %v", err)
	}
}

func TestRoundAgreementDetectsDisagreement(t *testing.T) {
	h := runAgree(t, 2, nil, 5, func(e *round.Engine, cs []*roundagree.Proc) {
		// Corrupt p1 to a wildly different clock before the run.
		rng := rand.New(rand.NewSource(7))
		cs[1].Corrupt(rng)
	})
	err := Check(RoundAgreement{}, h, 1, 1, proc.NewSet())
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a Violation for corrupted clocks, got %v", err)
	}
	if v.Problem != "agreement" {
		t.Errorf("violation kind = %q, want agreement", v.Problem)
	}
	if v.Round != 1 {
		t.Errorf("violation round = %d, want 1", v.Round)
	}
}

func TestRoundAgreementRateInsideWindowOnly(t *testing.T) {
	// Corrupted clocks: at the end of round 1 both adopt max+1, so the
	// lower process's clock jumps — a Rate violation on the transition
	// 1→2. It must be reported for windows containing both rounds but not
	// for the window [1,1] (the condition reads state outside it).
	h := runAgree(t, 2, nil, 5, func(e *round.Engine, cs []*roundagree.Proc) {
		cs[0].CorruptTo(100)
		cs[1].CorruptTo(5)
	})
	if err := Check(RoundAgreement{}, h, 2, 2, proc.NewSet()); err != nil {
		t.Errorf("window [2,2]: clocks agree at start of round 2, got %v", err)
	}
	err := Check(RoundAgreement{}, h, 1, 2, proc.NewSet())
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("window [1,2] should violate (agreement at round 1): %v", err)
	}
}

func TestRateViolationDetected(t *testing.T) {
	// A faulty process injects a huge clock to one correct process only,
	// making that process's clock jump: rate violation inside a window.
	adv := failure.NewScripted(2).DropSendAt(1, 2, 1).DropSendAt(2, 2, 1)
	h := runAgree(t, 3, adv, 4, func(e *round.Engine, cs []*roundagree.Proc) {
		cs[2].CorruptTo(1000)
	})
	// p0 heard 1000 in round 1 and jumped; p1 did not. Disagreement at
	// round 2 between p0 and p1.
	err := Check(RoundAgreement{}, h, 2, 2, proc.NewSet(2))
	if err == nil {
		t.Fatal("expected agreement violation at round 2")
	}
	// And p0's transition 1→2 is a rate violation.
	err = Check(RoundAgreement{}, h, 1, 2, proc.NewSet(1, 2))
	var v *Violation
	if !errors.As(err, &v) || v.Problem != "rate" {
		t.Fatalf("expected rate violation for p0 in [1,2], got %v", err)
	}
}

func TestEmptyWindowTriviallySatisfied(t *testing.T) {
	h := runAgree(t, 2, nil, 3, nil)
	if err := Check(RoundAgreement{}, h, 3, 2, proc.NewSet()); err != nil {
		t.Errorf("empty window must be satisfied: %v", err)
	}
}

// TestCheckWindowEdges pins the generic driver on the two edges a
// per-round window can get wrong: an empty window (lo > hi) evaluates
// nothing, and Rate — which reads round r+1 — is enforced exactly when
// r+1 is inside the window, so the first failure of [1,2] is the Rate
// read at hi−1 while [1,1] over the same rounds passes.
func TestCheckWindowEdges(t *testing.T) {
	// p2 injects a huge clock to p0 only: p0's transition 1→2 breaks Rate.
	adv := failure.NewScripted(2).DropSendAt(1, 2, 1).DropSendAt(2, 2, 1)
	h := runAgree(t, 3, adv, 4, func(e *round.Engine, cs []*roundagree.Proc) {
		cs[2].CorruptTo(1000)
	})
	never := Func{ProblemName: "never", Round: func(_ *history.History, r int, _ proc.Set) error {
		return &Violation{Problem: "never", Round: r, Detail: "evaluated"}
	}}
	onlyP0 := proc.NewSet(1, 2)
	cases := []struct {
		name        string
		sigma       Problem
		lo, hi      int
		faulty      proc.Set
		wantProblem string // "" = satisfied
		wantRound   int
	}{
		{"empty/uniformity", Uniformity{}, 3, 2, proc.NewSet(), "", 0},
		{"empty/and", And{RoundAgreement{}, never}, 5, 4, proc.NewSet(), "", 0},
		{"empty/func", never, 2, 1, proc.NewSet(), "", 0},
		{"rate-outside-window", RoundAgreement{}, 1, 1, onlyP0, "", 0},
		{"rate-at-hi-1", RoundAgreement{}, 1, 2, onlyP0, "rate", 1},
		// A conjunction reports the violation of the earliest extension,
		// not of the earliest component: Uniformity fails when the window
		// reaches round 1, before Rate can be read at round 2.
		{"and/earliest-round-first", And{RoundAgreement{}, Uniformity{}}, 1, 2, onlyP0, "uniformity", 1},
		{"rate-before-later-agreement", RoundAgreement{}, 1, 4, proc.NewSet(2), "rate", 1},
	}
	for _, c := range cases {
		err := Check(c.sigma, h, c.lo, c.hi, c.faulty)
		if c.wantProblem == "" {
			if err != nil {
				t.Errorf("%s: window [%d,%d] must be satisfied: %v", c.name, c.lo, c.hi, err)
			}
			continue
		}
		var v *Violation
		if !errors.As(err, &v) || v.Problem != c.wantProblem || v.Round != c.wantRound {
			t.Errorf("%s: got %v, want %s violation at round %d", c.name, err, c.wantProblem, c.wantRound)
		}
	}
}

func TestUniformityCheck(t *testing.T) {
	// Uniform processes, p1 faulty and silenced: p1 must halt or agree.
	cs := []*roundagree.Uniform{roundagree.NewUniformAt(0, 10), roundagree.NewUniformAt(1, 3)}
	ps := []round.Process{cs[0], cs[1]}
	adv := failure.NewScripted(1).SilenceBetween(1, 0, 1, 20)
	h := history.New(2, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	e.Run(5)

	// p1 never hears p0 so it never self-checks, never halts, and its
	// clock differs from p0's: uniformity is violated.
	err := Check(Uniformity{}, h, 1, 5, proc.NewSet(1))
	var v *Violation
	if !errors.As(err, &v) || v.Problem != "uniformity" {
		t.Fatalf("expected uniformity violation, got %v", err)
	}
}

func TestUniformitySatisfiedByHalting(t *testing.T) {
	// p1 faulty with a lower clock but hearing p0: it self-checks and
	// halts in round 1, satisfying uniformity.
	cs := []*roundagree.Uniform{roundagree.NewUniformAt(0, 10), roundagree.NewUniformAt(1, 3)}
	ps := []round.Process{cs[0], cs[1]}
	adv := failure.NewScripted(1).DropSendAt(2, 1, 0) // p1 nominally faulty
	h := history.New(2, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	e.Run(5)

	if !cs[1].Halted() {
		t.Fatal("p1 should have halted after hearing a higher clock")
	}
	if err := Check(Uniformity{}, h, 2, 5, proc.NewSet(1)); err != nil {
		t.Errorf("halted faulty process satisfies uniformity: %v", err)
	}
}

func TestAndCombinator(t *testing.T) {
	h := runAgree(t, 2, nil, 4, nil)
	sigma := And{RoundAgreement{}, Uniformity{}}
	if err := Check(sigma, h, 1, 4, proc.NewSet()); err != nil {
		t.Errorf("And on clean run: %v", err)
	}
	if sigma.Name() == "" {
		t.Error("And.Name empty")
	}

	failing := And{RoundAgreement{}, Func{
		ProblemName: "always-false",
		Round: func(_ *history.History, r int, _ proc.Set) error {
			return &Violation{Problem: "always-false", Round: r, Detail: "no"}
		},
	}}
	if err := Check(failing, h, 1, 4, proc.NewSet()); err == nil {
		t.Error("And must propagate component failures")
	}
}

func TestFuncAdapter(t *testing.T) {
	var rounds []int
	f := Func{ProblemName: "probe", Round: func(_ *history.History, r int, _ proc.Set) error {
		rounds = append(rounds, r)
		return nil
	}}
	if f.Name() != "probe" {
		t.Errorf("Name = %q", f.Name())
	}
	h := runAgree(t, 2, nil, 4, nil)
	if err := Check(f, h, 2, 3, proc.Set{}); err != nil {
		t.Errorf("Check err=%v", err)
	}
	if len(rounds) != 2 || rounds[0] != 2 || rounds[1] != 3 {
		t.Errorf("rounds visited = %v, want [2 3]", rounds)
	}
}

func TestCheckFT(t *testing.T) {
	h := runAgree(t, 3, nil, 8, nil)
	if err := CheckFT(h, RoundAgreement{}); err != nil {
		t.Errorf("CheckFT on clean good-state run: %v", err)
	}
}

func TestCheckSS(t *testing.T) {
	// Corrupted start, no process failures: Figure 1 ss-solves round
	// agreement with stabilization time 1.
	h := runAgree(t, 3, nil, 8, func(e *round.Engine, cs []*roundagree.Proc) {
		cs[0].CorruptTo(500)
		cs[1].CorruptTo(9)
		cs[2].CorruptTo(77)
	})
	if err := CheckSS(h, RoundAgreement{}, 1); err != nil {
		t.Errorf("CheckSS stab=1: %v", err)
	}
	// Stabilization 0 would require agreement already at round 1: false.
	if err := CheckSS(h, RoundAgreement{}, 0); err == nil {
		t.Error("CheckSS stab=0 should fail for corrupted start")
	}
}

func TestCheckTentativeTheorem1Scenario(t *testing.T) {
	// Theorem 1's scenario: corrupted clocks, p1 faulty and mutually
	// silent with p0 for the first `stab` rounds, then clean. Under the
	// tentative definition, Σ must hold on the stab-suffix with F = {p1};
	// it does not, because the first post-silence round still disagrees.
	for _, stab := range []int{1, 3, 7} {
		adv := failure.NewScripted(1).SilenceBetween(1, 0, 1, uint64(stab))
		h := runAgree(t, 2, adv, stab+5, func(e *round.Engine, cs []*roundagree.Proc) {
			cs[0].CorruptTo(40)
			cs[1].CorruptTo(900)
		})
		if err := CheckTentative(h, RoundAgreement{}, stab); err == nil {
			t.Errorf("stab=%d: tentative definition unexpectedly satisfied", stab)
		}
		// The same history is fine under piece-wise stability with
		// stabilization time 1 (Theorem 3).
		if err := CheckFTSS(h, RoundAgreement{}, 1); err != nil {
			t.Errorf("stab=%d: CheckFTSS failed: %v", stab, err)
		}
	}
}

func TestCheckFTSSRejectsBadStab(t *testing.T) {
	h := runAgree(t, 2, nil, 3, nil)
	if err := CheckFTSS(h, RoundAgreement{}, 0); err == nil {
		t.Error("stab=0 must be rejected")
	}
}

func TestCheckFTSSDetectsPersistentViolation(t *testing.T) {
	// A "protocol" that never repairs disagreement: frozen clocks. Use
	// uniform processes pre-halted... simpler: corrupt one clock and use
	// a no-repair process.
	ps := []round.Process{&frozen{id: 0, clock: 5}, &frozen{id: 1, clock: 9}}
	h := history.New(2, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(6)
	if err := CheckFTSS(h, RoundAgreement{}, 1); err == nil {
		t.Error("frozen clocks must violate ftss round agreement")
	}
}

// frozen broadcasts but never changes its clock: it violates Rate and
// Agreement forever.
type frozen struct {
	id    proc.ID
	clock uint64
}

func (f *frozen) ID() proc.ID              { return f.id }
func (f *frozen) StartRound() any          { return roundagree.Announce{Clock: f.clock} }
func (f *frozen) EndRound([]round.Message) {}
func (f *frozen) Snapshot() round.Snapshot { return round.Snapshot{Clock: f.clock} }

func TestMeasureStabilization(t *testing.T) {
	h := runAgree(t, 4, nil, 10, func(e *round.Engine, cs []*roundagree.Proc) {
		cs[0].CorruptTo(1_000_000)
		cs[2].CorruptTo(123)
	})
	m := MeasureStabilization(h, RoundAgreement{})
	if m.EventRound != 1 {
		t.Errorf("EventRound = %d, want 1 (first communication)", m.EventRound)
	}
	if m.Rounds != 1 {
		t.Errorf("measured stabilization = %d rounds, want 1 (Theorem 3)", m.Rounds)
	}
	if m.SatisfiedFrom != 2 {
		t.Errorf("SatisfiedFrom = %d, want 2", m.SatisfiedFrom)
	}
}

func TestMeasureStabilizationNeverSatisfied(t *testing.T) {
	ps := []round.Process{&frozen{id: 0, clock: 5}, &frozen{id: 1, clock: 9}}
	h := history.New(2, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(6)
	m := MeasureStabilization(h, RoundAgreement{})
	if m.Rounds != -1 || m.SatisfiedFrom != -1 {
		t.Errorf("measurement = %+v, want never-satisfied", m)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Problem: "agreement", Round: 3, Detail: "boom"}
	if v.Error() == "" {
		t.Error("empty error string")
	}
}
