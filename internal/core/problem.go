// Package core implements the paper's formal framework (§2.1–§2.2): problem
// predicates over history windows, the Agreement/Rate conditions of
// Assumption 1 and the Uniformity condition of Assumption 2, and the four
// notions of solving a problem — ft-solves (Definition 2.1), ss-solves
// (Definition 2.2), the rejected Tentative Definition 1, and ftss-solves
// (Definition 2.4, piece-wise stability).
//
//ftss:det problem definitions are evaluated inside deterministic replays
package core

import (
	"fmt"

	"ftss/internal/history"
	"ftss/internal/proc"
)

// Problem is the paper's Σ: a predicate on a history (here, a window of a
// recorded history) and a set of faulty processes. It is written once, as
// a window that grows: NewWindow opens the window family [lo, lo],
// [lo, lo+1], … of actual rounds (inclusive, 1-based) of h under
// F = faulty, and each Extend grows the window by one round. Check drives
// a window over a fixed range; windowScan drives Definition 2.4's
// families.
//
// Implementations must treat `faulty` as read-only: the checkers pass the
// history's internal set without a defensive copy.
type Problem interface {
	Name() string
	NewWindow(h *history.History, lo int, faulty proc.Set) WindowChecker
}

// WindowChecker is one window family of a Problem. Extend(hi) must be
// called with hi increasing by one from lo; it returns nil if Σ holds on
// [lo, hi] and a *Violation otherwise, and may read no state beyond round
// hi (H3 in Definition 2.4). No caller extends past a failure.
type WindowChecker interface {
	Extend(hi int) error
}

// PerRound is the window of a Σ that constrains each round independently:
// extending to hi checks round hi alone.
type PerRound func(r int) error

// Extend implements WindowChecker.
func (check PerRound) Extend(hi int) error { return check(hi) }

// Check evaluates Σ on actual rounds lo..hi of h, treating `faulty` as F.
// A window with lo > hi is empty and trivially satisfied. The violation
// reported is the one at the earliest round.
func Check(sigma Problem, h *history.History, lo, hi int, faulty proc.Set) error {
	w := sigma.NewWindow(h, lo, faulty)
	for r := lo; r <= hi; r++ {
		if err := w.Extend(r); err != nil {
			return err
		}
	}
	return nil
}

// Violation reports where and why a problem predicate failed.
type Violation struct {
	Problem string
	Round   int // actual round at which the violation manifests
	Detail  string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated at round %d: %s", v.Problem, v.Round, v.Detail)
}

// RoundAgreement is Assumption 1: in every round of the window, all correct
// processes agree on the current round number (Agreement), and each correct
// process increments its round number by exactly one at the end of each
// round (Rate).
type RoundAgreement struct{}

// Name implements Problem.
func (RoundAgreement) Name() string { return "round-agreement (Assumption 1)" }

// NewWindow implements Problem.
func (RoundAgreement) NewWindow(h *history.History, lo int, faulty proc.Set) WindowChecker {
	return &roundAgreementWindow{h: h, lo: lo, faulty: faulty}
}

type roundAgreementWindow struct {
	h      *history.History
	lo     int
	faulty proc.Set
}

// Extend adds the Rate check of round hi-1 and the Agreement check of
// round hi. Rate reads the state at the start of round r+1, so it is only
// enforced once r+1 is inside the window: the predicate must not read
// state beyond the history fragment it is given (H3 in Definition 2.4).
func (w *roundAgreementWindow) Extend(hi int) error {
	if hi > w.lo {
		if err := (RoundAgreement{}).checkRate(w.h, hi-1, w.faulty); err != nil {
			return err
		}
	}
	return (RoundAgreement{}).checkAgreement(w.h, hi, w.faulty)
}

// checkAgreement: c_p^r equal across correct alive processes. Iterating
// IDs in 0..n−1 order visits the same processes as Alive.Sorted() without
// allocating.
func (RoundAgreement) checkAgreement(h *history.History, r int, faulty proc.Set) error {
	alive := h.AliveAt(r)
	first := proc.None
	var firstClock uint64
	for i := 0; i < h.N(); i++ {
		p := proc.ID(i)
		if !alive.Has(p) || faulty.Has(p) {
			continue
		}
		c, ok := h.ClockAt(r, p)
		if !ok {
			continue
		}
		if first == proc.None {
			first, firstClock = p, c
			continue
		}
		if c != firstClock {
			return &Violation{
				Problem: "agreement",
				Round:   r,
				Detail: fmt.Sprintf("c_%v^%d = %d but c_%v^%d = %d",
					first, r, firstClock, p, r, c),
			}
		}
	}
	return nil
}

// checkRate: c_p^{r+1} = c_p^r + 1 for correct processes alive in round r.
func (RoundAgreement) checkRate(h *history.History, r int, faulty proc.Set) error {
	alive := h.AliveAt(r)
	for i := 0; i < h.N(); i++ {
		p := proc.ID(i)
		if !alive.Has(p) || faulty.Has(p) {
			continue
		}
		before, ok1 := h.ClockAt(r, p)
		after, ok2 := h.ClockAt(r+1, p)
		if !ok1 || !ok2 {
			continue // crashed in between: c undefined from then on
		}
		if after != before+1 {
			return &Violation{
				Problem: "rate",
				Round:   r,
				Detail: fmt.Sprintf("c_%v^%d = %d but c_%v^%d = %d (want %d)",
					p, r, before, p, r+1, after, before+1),
			}
		}
	}
	return nil
}

// Uniformity is Assumption 2 (§2.2): in every round, every faulty process
// has either halted or agrees with the correct processes on the round
// number. Protocols enforcing it "self-check and halt before doing harm";
// Theorem 2 shows such protocols cannot ftss-solve anything.
type Uniformity struct{}

// Name implements Problem.
func (Uniformity) Name() string { return "uniformity (Assumption 2)" }

// NewWindow implements Problem.
func (u Uniformity) NewWindow(h *history.History, lo int, faulty proc.Set) WindowChecker {
	return PerRound(func(r int) error { return u.checkRound(h, r, faulty) })
}

func (Uniformity) checkRound(h *history.History, r int, faulty proc.Set) error {
	// Reference clock: any correct process's clock.
	ref := proc.None
	var refClock uint64
	for _, p := range h.AliveAt(r).Sorted() {
		if faulty.Has(p) {
			continue
		}
		if c, ok := h.ClockAt(r, p); ok {
			ref, refClock = p, c
			break
		}
	}
	if ref == proc.None {
		return nil // no correct process alive; nothing to compare against
	}
	for _, p := range faulty.Sorted() {
		snap, ok := h.SnapshotAt(r, p)
		if !ok {
			continue // crashed counts as halted
		}
		if snap.Halted {
			continue
		}
		if snap.Clock != refClock {
			return &Violation{
				Problem: "uniformity",
				Round:   r,
				Detail: fmt.Sprintf("faulty %v is not halted and c_%v^%d = %d ≠ %d = c_%v^%d",
					p, p, r, snap.Clock, refClock, ref, r),
			}
		}
	}
	return nil
}

// And conjoins problems: the window must satisfy every component.
type And []Problem

// Name implements Problem.
func (a And) Name() string {
	s := "all("
	for i, p := range a {
		if i > 0 {
			s += ", "
		}
		s += p.Name()
	}
	return s + ")"
}

// NewWindow implements Problem: each component streams independently,
// extended in conjunction order.
func (a And) NewWindow(h *history.History, lo int, faulty proc.Set) WindowChecker {
	ws := make(andWindow, len(a))
	for i, p := range a {
		ws[i] = p.NewWindow(h, lo, faulty)
	}
	return ws
}

type andWindow []WindowChecker

func (ws andWindow) Extend(hi int) error {
	for _, w := range ws {
		if err := w.Extend(hi); err != nil {
			return err
		}
	}
	return nil
}

// Func adapts a per-round predicate to the Problem interface: Σ holds on
// a window iff Round holds at every round of it.
type Func struct {
	ProblemName string
	Round       func(h *history.History, r int, faulty proc.Set) error
}

// Name implements Problem.
func (f Func) Name() string { return f.ProblemName }

// NewWindow implements Problem.
func (f Func) NewWindow(h *history.History, lo int, faulty proc.Set) WindowChecker {
	return PerRound(func(r int) error { return f.Round(h, r, faulty) })
}
