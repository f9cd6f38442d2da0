package core

import (
	"ftss/internal/history"
	"ftss/internal/proc"
)

// CheckFT verifies Definition 2.1 on a recorded history: Σ(H, F(H,Π)) must
// hold for the whole history (process failures permitted, no systemic
// failures assumed — the caller is responsible for having started the run
// in a good state).
func CheckFT(h *history.History, sigma Problem) error {
	return Check(sigma, h, 1, h.Len(), h.Faulty())
}

// CheckSS verifies Definition 2.2 on a recorded history: Σ(H', ∅) must hold
// where H' is the stab-suffix (systemic failures permitted, no process
// failures).
func CheckSS(h *history.History, sigma Problem, stab int) error {
	return Check(sigma, h, stab+1, h.Len(), proc.NewSet())
}

// CheckTentative verifies the rejected Tentative Definition 1:
// Σ(H', F(H,Π)) on the stab-suffix H'. Theorem 1 shows no protocol can meet
// this for any finite stab; the experiments use this checker to exhibit the
// violating scenarios.
func CheckTentative(h *history.History, sigma Problem, stab int) error {
	return Check(sigma, h, stab+1, h.Len(), h.Faulty())
}

// CheckFTSS verifies Definition 2.4 (piece-wise stability) on a recorded
// history: for every maximal coterie-stable segment beginning with a
// de-stabilizing event in round t0, after a grace period of stab rounds the
// problem must hold on every window of the remainder of the segment —
// Σ(rounds t0+stab .. b, F of that prefix) for every b up to the segment
// end.
//
// Note on the formula in the paper: Definition 2.4 as printed constrains
// coterie(H1·H2) = coterie(H1·H2·H3) only. Because the coterie is monotone
// that pins stability during H3 but, read literally, allows the
// de-stabilizing event inside H2 at its very last round, which for
// stab > 1 would demand recovery immediately after the event and
// contradict Theorem 4 (stabilization final_round). We implement the
// reading the paper's informal text and the proof of Theorem 3 use: the
// coterie is unchanged for ≥ stab rounds ("stable for long enough"), then
// Σ holds as long as it remains unchanged. With stab = 1 the two readings
// coincide, and Theorem 3's obligation — agreement from the round after
// the event — is exactly what this checker enforces.
func CheckFTSS(h *history.History, sigma Problem, stab int) error {
	return EvalIncremental(h, sigma, stab).Verdict()
}

// StabilizationMeasurement reports how quickly a protocol re-satisfied Σ
// after the final de-stabilizing event of a history.
type StabilizationMeasurement struct {
	// EventRound is the round of the final de-stabilizing event (0 if the
	// coterie never changed).
	EventRound int
	// SatisfiedFrom is the earliest round s ≥ EventRound such that Σ holds
	// on every window [s, b] for b up to the history end. It is −1 if Σ
	// never re-stabilized within the recorded history.
	SatisfiedFrom int
	// Rounds is SatisfiedFrom − EventRound, the measured stabilization
	// time; −1 if never.
	Rounds int
}

// MeasureStabilization finds, for the final coterie-stable segment of h,
// the earliest round from which Σ holds through the end of the history.
// This is the empirical analogue of the paper's stabilization time: the
// theorems bound Rounds by 1 (Theorem 3) or final_round (+final_round for
// corrupted suspect sets; Theorem 4).
func MeasureStabilization(h *history.History, sigma Problem) StabilizationMeasurement {
	segs := h.StableSegments()
	last := segs[len(segs)-1]
	m := StabilizationMeasurement{EventRound: last.Start, SatisfiedFrom: -1, Rounds: -1}
	if s := earliestStart(h, sigma, last.Start, last.End); s <= last.End {
		m.SatisfiedFrom = s
		m.Rounds = s - last.Start
	}
	return m
}

// MinimalStabilization returns the smallest stabilization budget b ≥ 1
// for which CheckFTSS(h, sigma, b) passes: the max over segments of
// (earliest feasible window start − segment start). A budget always
// exists — once it exceeds a segment's length every window of that
// segment is empty.
//
// Taking the max across segments assumes a window that satisfies Σ still
// satisfies it after its start moves right, which holds for every problem
// in this repository (each constrains only rounds inside the window, so
// shrinking it drops constraints). The property tests compare against a
// linear scan over budgets on seeded chaotic histories.
func MinimalStabilization(h *history.History, sigma Problem) int {
	best := 1
	for _, seg := range h.StableSegments() {
		if b := earliestStart(h, sigma, seg.Start+1, seg.End) - seg.Start; b > best {
			best = b
		}
	}
	return best
}

// earliestStart returns the smallest s in [max(lo, 1), end] such that Σ
// holds on every window [s, b], s ≤ b ≤ end, of one stable segment, each
// under F(b); it returns end+1 if there is none. Every candidate start is
// scanned until its first failing window, so the cost is the sum of those
// distances: O(T) when the segment is well-behaved, O(T²) worst case.
func earliestStart(h *history.History, sigma Problem, lo, end int) int {
	if lo < 1 {
		lo = 1
	}
	for ; lo <= end; lo++ {
		sc := windowScan{h: h, sigma: sigma, lo: lo}
		b := lo
		for b <= end && sc.extend(b) == nil {
			b++
		}
		if b > end {
			break
		}
	}
	return lo
}
