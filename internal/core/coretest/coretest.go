// Package coretest is the brute-force oracle for Definition 2.4 that the
// differential tests of core, chaos and superimpose hold the evaluator
// to. It shares no code with it: segments are recomputed from the coterie
// sequence and the marks, windows are enumerated directly from the
// definition, and Σ is taken as an opaque whole-window predicate, so a
// package can also plug in a batch reference of its own predicate. It
// imports neither core nor any problem package and no binary imports it.
//
//ftss:det oracle verdicts are compared byte for byte
package coretest

import (
	"fmt"

	"ftss/internal/history"
	"ftss/internal/proc"
)

// Window is Σ in whole-window form: nil iff Σ holds on actual rounds
// lo..hi of h under F = faulty.
type Window func(h *history.History, lo, hi int, faulty proc.Set) error

// segments returns the [start, end] prefix spans of the stable segments:
// one begins at 0, at each coterie change, and at the first round after
// each systemic mark.
func segments(h *history.History) [][2]int {
	begins := make([]bool, h.Len()+1)
	for t := 1; t <= h.Len(); t++ {
		begins[t] = !h.CoterieAt(t).Equal(h.CoterieAt(t - 1))
	}
	for _, m := range h.SystemicFailureMarks() {
		if m+1 <= h.Len() {
			begins[m+1] = true
		}
	}
	segs := [][2]int{{0, h.Len()}}
	for t := 1; t <= h.Len(); t++ {
		if begins[t] {
			segs[len(segs)-1][1] = t - 1
			segs = append(segs, [2]int{t, h.Len()})
		}
	}
	return segs
}

// CheckFTSS evaluates Definition 2.4 from its statement: for each segment
// [t0, end] and each window end e in it, Σ(rounds t0+stab .. e, F of
// prefix e) must hold. The error is the first violation in (segment,
// window end) order, wrapped with the segment's span and coterie.
func CheckFTSS(h *history.History, sigma Window, stab int) error {
	if stab < 1 {
		return fmt.Errorf("stabilization time must be ≥ 1, got %d", stab)
	}
	for _, seg := range segments(h) {
		lo := seg[0] + stab
		for e := lo; e <= seg[1]; e++ {
			if err := sigma(h, lo, e, h.FaultyUpTo(e)); err != nil {
				return fmt.Errorf("segment [%d,%d] coterie %v: %w",
					seg[0], seg[1], h.CoterieAt(seg[0]), err)
			}
		}
	}
	return nil
}

// Measure returns the round of the final de-stabilizing event (the start
// of the last segment) and the earliest round s at or after it (and ≥ 1)
// such that Σ holds on every window [s, e] up to the history end, each
// under F of prefix e; −1 if there is none.
func Measure(h *history.History, sigma Window) (eventRound, satisfiedFrom int) {
	segs := segments(h)
	eventRound = segs[len(segs)-1][0]
candidates:
	for s := max(eventRound, 1); s <= h.Len(); s++ {
		for e := s; e <= h.Len(); e++ {
			if sigma(h, s, e, h.FaultyUpTo(e)) != nil {
				continue candidates
			}
		}
		return eventRound, s
	}
	return eventRound, -1
}
