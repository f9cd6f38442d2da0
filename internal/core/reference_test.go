package core

import (
	"math/rand"
	"testing"

	"ftss/internal/core/coretest"
	"ftss/internal/failure"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
)

// windows hands Σ to the brute-force oracle in whole-window form, through
// the generic driver.
func windows(sigma Problem) coretest.Window {
	return func(h *history.History, lo, hi int, faulty proc.Set) error {
		return Check(sigma, h, lo, hi, faulty)
	}
}

// refMeasure is the oracle's measurement in MeasureStabilization's shape.
func refMeasure(h *history.History, sigma Problem) StabilizationMeasurement {
	event, from := coretest.Measure(h, windows(sigma))
	m := StabilizationMeasurement{EventRound: event, SatisfiedFrom: from, Rounds: -1}
	if from >= 0 {
		m.Rounds = from - event
	}
	return m
}

// TestCheckFTSSAgainstReference cross-validates the evaluator against the
// brute-force oracle (coretest) over randomized runs, with and without
// mid-run corruption marks: verdict text and measurement must be equal.
func TestCheckFTSSAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		n := 2 + int(seed)%4
		faulty := proc.NewSet()
		if n > 2 {
			faulty.Add(proc.ID(int(seed) % n))
		}
		adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, seed, 10)
		cs, ps := roundagree.Procs(n)
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(n, faulty)
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(8)
		if seed%3 == 0 {
			e.Corrupt(rng, proc.NewSet(0))
			h.MarkSystemicFailure()
		}
		e.Run(10)

		for _, stab := range []int{1, 2, 4} {
			got := errString(CheckFTSS(h, RoundAgreement{}, stab))
			want := errString(coretest.CheckFTSS(h, windows(RoundAgreement{}), stab))
			if got != want {
				t.Fatalf("seed=%d stab=%d:\nchecker:   %s\nreference: %s", seed, stab, got, want)
			}
		}
		if got, want := MeasureStabilization(h, RoundAgreement{}), refMeasure(h, RoundAgreement{}); got != want {
			t.Fatalf("seed=%d: MeasureStabilization %+v, reference %+v", seed, got, want)
		}
	}
}

// TestCheckFTSSMarksRestartGrace: a mid-run systemic failure restarts the
// stabilization clock even when the coterie never changes.
func TestCheckFTSSMarksRestartGrace(t *testing.T) {
	cs, ps := roundagree.Procs(3)
	h := history.New(3, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(5)
	// Corrupt a single process: clocks disagree at round 6, re-agree at 7.
	cs[1].CorruptTo(999_999)
	h.MarkSystemicFailure()
	e.Run(6)

	// Without the mark the disagreement at round 6 would be unexcused:
	// simulate by building an identical history object lacking the mark.
	if err := CheckFTSS(h, RoundAgreement{}, 1); err != nil {
		t.Fatalf("marked history should pass: %v", err)
	}

	cs2, ps2 := roundagree.Procs(3)
	h2 := history.New(3, proc.NewSet())
	e2 := round.MustNewEngine(ps2, nil)
	e2.Observe(h2)
	e2.Run(5)
	cs2[1].CorruptTo(999_999)
	// no MarkSystemicFailure here
	e2.Run(6)
	if err := CheckFTSS(h2, RoundAgreement{}, 1); err == nil {
		t.Fatal("unmarked corruption should violate (no excusing boundary)")
	}
}

// TestUniformityVacuousWhenNoCorrectAlive: with every process faulty the
// condition has no reference clock and is vacuously satisfied.
func TestUniformityVacuousWhenNoCorrectAlive(t *testing.T) {
	adv := failure.NewScripted(0, 1).CrashAt(0, 2).CrashAt(1, 2)
	_, ps := roundagree.Procs(2)
	h := history.New(2, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	e.Run(4)
	if err := Check(Uniformity{}, h, 3, 4, proc.NewSet(0, 1)); err != nil {
		t.Errorf("vacuous uniformity failed: %v", err)
	}
	if err := Check(RoundAgreement{}, h, 3, 4, proc.NewSet(0, 1)); err != nil {
		t.Errorf("vacuous agreement failed: %v", err)
	}
}

// TestMeasureStabilizationWithMark: the measurement anchors to the mark
// boundary, not only coterie events.
func TestMeasureStabilizationWithMark(t *testing.T) {
	cs, ps := roundagree.Procs(2)
	h := history.New(2, proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(6)
	cs[0].CorruptTo(12345)
	h.MarkSystemicFailure()
	e.Run(8)

	m := MeasureStabilization(h, RoundAgreement{})
	if m.EventRound != 7 {
		t.Errorf("EventRound = %d, want 7 (the post-mark round)", m.EventRound)
	}
	if m.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", m.Rounds)
	}
}
