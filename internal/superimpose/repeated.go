package superimpose

import (
	"fmt"

	"ftss/internal/core"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
)

// RepeatedConsensus is the Σ⁺ predicate for a compiled consensus protocol:
// the window must satisfy Assumption 1 (round agreement), and every
// iteration of Π that lies completely inside the window must satisfy the
// single-shot Consensus specification among correct processes:
//
//	Termination: every correct process records a decision when the
//	             iteration completes.
//	Agreement:   those decisions are equal.
//	Validity:    the decided value is some process's input for that
//	             iteration; with unanimous inputs it is that input.
//
// Σ⁺ in the paper is an exact tiling H = H₁·…·Hᵢ·… with each Σ(Hᵢ, F)
// satisfied. A checker window rarely aligns with iteration boundaries, so
// this predicate checks the natural reading for non-terminating repetition:
// the window tiles into (partial prefix)·H₁·…·H_k·(partial suffix) with
// every complete tile satisfying Σ. The ragged edges are unconstrained
// beyond Assumption 1.
type RepeatedConsensus struct {
	// FinalRound is Π's duration (the tile width).
	FinalRound int
	// Inputs re-derives the per-iteration inputs for validity checking.
	Inputs InputSource
}

var _ core.Problem = RepeatedConsensus{}

// Name implements core.Problem.
func (rc RepeatedConsensus) Name() string { return "repeated-consensus (Σ⁺)" }

// NewWindow implements core.Problem.
func (rc RepeatedConsensus) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return newRepeatedWindow(h, lo, faulty, rc.FinalRound, rc.checkIteration)
}

// repeatedWindow is the window of every repeated Σ⁺ predicate: an
// Assumption 1 window plus a tile scan. The scan's decisions at rounds
// below hi — reference clocks, skipped rounds, tile starts — do not depend
// on the window end, so a cursor persists across extensions and each
// Extend adds the two new Assumption 1 checks and at most one newly
// completed tile. The single window-dependent clause, the ragged-suffix
// break when a tile would overrun hi, leaves the cursor in place so the
// tile is re-attempted once the window reaches its end.
type repeatedWindow struct {
	h         *history.History
	faulty    proc.Set
	ra        core.WindowChecker
	fr        int
	scanR     int
	checkTile tileCheck
}

// tileCheck validates the decisions recorded at the end of round `end`,
// the last round of a completed iteration.
type tileCheck func(h *history.History, end int, iter uint64, faulty proc.Set) error

func newRepeatedWindow(h *history.History, lo int, faulty proc.Set, fr int, checkTile tileCheck) *repeatedWindow {
	return &repeatedWindow{
		h:         h,
		faulty:    faulty,
		ra:        core.RoundAgreement{}.NewWindow(h, lo, faulty),
		fr:        fr,
		scanR:     lo,
		checkTile: checkTile,
	}
}

// Extend implements core.WindowChecker.
func (w *repeatedWindow) Extend(hi int) error {
	if err := w.ra.Extend(hi); err != nil {
		return err
	}
	for w.scanR <= hi {
		clock, ok := referenceClock(w.h, w.scanR, w.faulty)
		if !ok {
			w.scanR++
			continue
		}
		if Normalize(clock, w.fr) != 1 {
			w.scanR++
			continue
		}
		end := w.scanR + w.fr - 1
		if end > hi {
			break // ragged suffix: retry once the window reaches end
		}
		if err := w.checkTile(w.h, end, Iteration(clock, w.fr), w.faulty); err != nil {
			return err
		}
		w.scanR = end + 1
	}
	return nil
}

// checkIteration validates the decisions recorded at the end of round
// `end` for the iteration completing there.
func (rc RepeatedConsensus) checkIteration(h *history.History, end int, iter uint64, faulty proc.Set) error {
	var agreed *fullinfo.Value
	var who proc.ID
	for _, p := range h.AliveAt(end).Sorted() {
		if faulty.Has(p) {
			continue
		}
		snap, ok := h.SnapshotAtEnd(end, p)
		if !ok {
			continue
		}
		dec, ok := snap.Decided.(Decision)
		if !ok {
			return &core.Violation{
				Problem: "Σ⁺ termination",
				Round:   end,
				Detail:  fmt.Sprintf("correct %v has no decision at end of iteration %d", p, iter),
			}
		}
		if dec.Iteration != iter {
			return &core.Violation{
				Problem: "Σ⁺ termination",
				Round:   end,
				Detail: fmt.Sprintf("correct %v's decision is for iteration %d, want %d",
					p, dec.Iteration, iter),
			}
		}
		if !dec.OK {
			return &core.Violation{
				Problem: "Σ⁺ termination",
				Round:   end,
				Detail:  fmt.Sprintf("correct %v produced no output for iteration %d", p, iter),
			}
		}
		if agreed == nil {
			v := dec.Value
			agreed, who = &v, p
			continue
		}
		if dec.Value != *agreed {
			return &core.Violation{
				Problem: "Σ⁺ agreement",
				Round:   end,
				Detail: fmt.Sprintf("iteration %d: %v decided %d but %v decided %d",
					iter, who, *agreed, p, dec.Value),
			}
		}
	}
	if agreed == nil {
		return nil // no correct processes alive: vacuous
	}
	// Validity against the iteration's inputs.
	valid := false
	unanimous := true
	first := rc.Inputs(0, iter)
	for q := 0; q < h.N(); q++ {
		in := rc.Inputs(proc.ID(q), iter)
		if in == *agreed {
			valid = true
		}
		if in != first {
			unanimous = false
		}
	}
	if !valid {
		return &core.Violation{
			Problem: "Σ⁺ validity",
			Round:   end,
			Detail:  fmt.Sprintf("iteration %d: decision %d is no process's input", iter, *agreed),
		}
	}
	if unanimous && *agreed != first {
		return &core.Violation{
			Problem: "Σ⁺ validity",
			Round:   end,
			Detail: fmt.Sprintf("iteration %d: unanimous input %d but decision %d",
				iter, first, *agreed),
		}
	}
	return nil
}

// referenceClock returns the clock of the lowest-numbered correct alive
// process at round r.
func referenceClock(h *history.History, r int, faulty proc.Set) (uint64, bool) {
	for _, p := range h.AliveAt(r).Sorted() {
		if faulty.Has(p) {
			continue
		}
		if c, ok := h.ClockAt(r, p); ok {
			return c, true
		}
	}
	return 0, false
}

// RepeatedAgreement is the validity-free Σ⁺: Assumption 1 plus, per
// complete iteration, termination and equality of the correct processes'
// decisions. It fits compiled protocols whose outputs are not drawn from
// the raw input domain (vector digests, commit verdicts).
type RepeatedAgreement struct {
	FinalRound int
}

var _ core.Problem = RepeatedAgreement{}

// Name implements core.Problem.
func (ra RepeatedAgreement) Name() string { return "repeated-agreement (Σ⁺, validity-free)" }

// NewWindow implements core.Problem.
func (ra RepeatedAgreement) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return newRepeatedWindow(h, lo, faulty, ra.FinalRound, ra.checkIteration)
}

// checkIteration is RepeatedConsensus.checkIteration without the validity
// clause.
func (RepeatedAgreement) checkIteration(h *history.History, end int, iter uint64, faulty proc.Set) error {
	var agreed *fullinfo.Value
	var who proc.ID
	for _, p := range h.AliveAt(end).Sorted() {
		if faulty.Has(p) {
			continue
		}
		snap, ok := h.SnapshotAtEnd(end, p)
		if !ok {
			continue
		}
		dec, ok := snap.Decided.(Decision)
		if !ok || dec.Iteration != iter || !dec.OK {
			return &core.Violation{
				Problem: "Σ⁺ termination",
				Round:   end,
				Detail:  fmt.Sprintf("correct %v lacks a valid iteration-%d decision", p, iter),
			}
		}
		if agreed == nil {
			v := dec.Value
			agreed, who = &v, p
			continue
		}
		if dec.Value != *agreed {
			return &core.Violation{
				Problem: "Σ⁺ agreement",
				Round:   end,
				Detail: fmt.Sprintf("iteration %d: %v decided %d but %v decided %d",
					iter, who, *agreed, p, dec.Value),
			}
		}
	}
	return nil
}

// RepeatedBroadcast is the Σ⁺ predicate for a compiled ReliableBroadcast:
// Assumption 1 plus, per complete iteration, all-or-nothing delivery of the
// initiator's per-iteration input among correct processes, with integrity.
type RepeatedBroadcast struct {
	Protocol fullinfo.ReliableBroadcast
	Inputs   InputSource
}

var _ core.Problem = RepeatedBroadcast{}

// Name implements core.Problem.
func (rb RepeatedBroadcast) Name() string { return "repeated-broadcast (Σ⁺)" }

// NewWindow implements core.Problem.
func (rb RepeatedBroadcast) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return newRepeatedWindow(h, lo, faulty, rb.Protocol.FinalRound(), rb.checkIteration)
}

func (rb RepeatedBroadcast) checkIteration(h *history.History, end int, iter uint64, faulty proc.Set) error {
	input := rb.Inputs(rb.Protocol.Initiator, iter)
	delivered, missed := 0, 0
	for _, p := range h.AliveAt(end).Sorted() {
		if faulty.Has(p) {
			continue
		}
		snap, ok := h.SnapshotAtEnd(end, p)
		if !ok {
			continue
		}
		dec, ok := snap.Decided.(Decision)
		if !ok || dec.Iteration != iter {
			return &core.Violation{
				Problem: "Σ⁺ broadcast termination",
				Round:   end,
				Detail:  fmt.Sprintf("correct %v lacks an iteration-%d outcome", p, iter),
			}
		}
		if dec.OK {
			delivered++
			if dec.Value != input {
				return &core.Violation{
					Problem: "Σ⁺ broadcast integrity",
					Round:   end,
					Detail: fmt.Sprintf("iteration %d: %v delivered %d, initiator sent %d",
						iter, p, dec.Value, input),
				}
			}
		} else {
			missed++
		}
	}
	if delivered > 0 && missed > 0 {
		return &core.Violation{
			Problem: "Σ⁺ broadcast agreement",
			Round:   end,
			Detail:  fmt.Sprintf("iteration %d: %d delivered, %d did not", iter, delivered, missed),
		}
	}
	if missed > 0 && !faulty.Has(rb.Protocol.Initiator) {
		return &core.Violation{
			Problem: "Σ⁺ broadcast validity",
			Round:   end,
			Detail:  fmt.Sprintf("iteration %d: correct initiator's value not delivered", iter),
		}
	}
	return nil
}
