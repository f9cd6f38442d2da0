// The Definition 2.4 evaluator. A history is judged one observed round at
// a time: appending round t extends the current stable segment's window
// family by one window (one problem extension, O(delta)), and
// de-stabilizing events merely reset the per-segment state. CheckFTSS,
// the measurements and every harness read their verdicts from here; the
// brute-force oracle in core/coretest is what the differential tests hold
// it to at every prefix.

package core

import (
	"fmt"

	"ftss/internal/history"
	"ftss/internal/proc"
)

// windowScan drives one segment's window family [lo, b] for increasing b,
// handling the detail the WindowChecker contract fixes away: Definition
// 2.4 judges window [lo, b] under F(b), the faulty set of prefix b, which
// can grow inside a segment. Faulty sets are shared by identity in the
// history, so growth is an O(1) pointer comparison; on growth the window
// is rebuilt by replaying [lo, b-1] under the new set. A replay failure
// is a failure of window [lo, b] under F(b): the replayed extensions are
// a prefix of that window's. F grows at most n times, so the amortized
// cost per append stays O(delta).
type windowScan struct {
	h      *history.History
	sigma  Problem
	lo     int
	win    WindowChecker
	faulty proc.Set
}

// extend folds window [lo, b] into the scan; b must increase by one per
// call starting at lo. It returns what Check(sigma, h, lo, b, F(b))
// returns, given all earlier extends passed.
func (s *windowScan) extend(b int) error {
	faulty := s.h.FaultyUpToView(b)
	if s.win == nil || faulty != s.faulty {
		s.win, s.faulty = s.sigma.NewWindow(s.h, s.lo, faulty), faulty
		for r := s.lo; r < b; r++ {
			if err := s.win.Extend(r); err != nil {
				return err
			}
		}
	}
	return s.win.Extend(b)
}

// --- the incremental Definition 2.4 checker ---

// SegmentResult is the verdict of one maximal coterie-stable segment as
// accumulated by an IncrementalChecker. Err is the first window violation
// inside the segment (unwrapped, as sigma reported it), or nil.
type SegmentResult struct {
	Start, End int
	Coterie    proc.Set
	Err        error
}

// IncrementalChecker maintains the Definition 2.4 verdict of a growing
// history, one observed round at a time. It attaches to the history's
// append hook; each appended round costs one window extension plus O(1)
// boundary bookkeeping. Memory is O(segments + window state), independent
// of history length, so soak and cluster harnesses can hold progressive
// verdicts over unbounded runs.
type IncrementalChecker struct {
	h     *history.History
	sigma Problem
	stab  int
	// stabErr rejects stab < 1; no round is evaluated under it.
	stabErr error

	// Open segment.
	segStart   int
	segCoterie proc.Set // clone, for the Segment it closes into and error text
	segErr     error    // first violation inside the open segment
	scan       windowScan

	// Closed segments, in order.
	closed []SegmentResult
	// firstErr caches the wrapped error of the earliest failed closed
	// segment.
	firstErr error
}

// NewIncrementalChecker builds a checker for sigma with the given
// stabilization budget, catches up on the rounds h already holds, and
// attaches to h so every further ObserveRound extends the verdict.
func NewIncrementalChecker(h *history.History, sigma Problem, stab int) *IncrementalChecker {
	ic := EvalIncremental(h, sigma, stab)
	if ic.stabErr == nil {
		h.OnAppend(ic.append)
	}
	return ic
}

// EvalIncremental builds a checker over the rounds h already holds
// without attaching to its append hook: a one-shot evaluation for
// completed histories (history hooks cannot be detached, so repeated
// one-shot verdicts must not accumulate them).
func EvalIncremental(h *history.History, sigma Problem, stab int) *IncrementalChecker {
	ic := &IncrementalChecker{h: h, sigma: sigma, stab: stab}
	if stab < 1 {
		ic.stabErr = fmt.Errorf("stabilization time must be ≥ 1, got %d", stab)
		return ic
	}
	ic.openSegment(0)
	for t := 1; t <= h.Len(); t++ {
		ic.append(t)
	}
	return ic
}

// openSegment starts the segment whose first prefix is t.
func (ic *IncrementalChecker) openSegment(t int) {
	ic.segStart = t
	ic.segCoterie = ic.h.CoterieAtView(t).Clone()
	ic.segErr = nil
	lo := t + ic.stab
	if lo < 1 {
		lo = 1
	}
	ic.scan = windowScan{h: ic.h, sigma: ic.sigma, lo: lo}
}

// append folds observed round t (the new prefix length) into the verdict.
func (ic *IncrementalChecker) append(t int) {
	if ic.stabErr != nil {
		return
	}
	if ic.h.OpensSegment(ic.segStart, t) {
		ic.closeSegment(t - 1)
		ic.openSegment(t)
	}
	if t < ic.scan.lo || ic.segErr != nil {
		// Inside the grace period, or the segment already failed: no
		// further window of this segment is evaluated.
		return
	}
	if err := ic.scan.extend(t); err != nil {
		ic.segErr = err
	}
}

func (ic *IncrementalChecker) closeSegment(end int) {
	ic.closed = append(ic.closed, SegmentResult{
		Start: ic.segStart, End: end, Coterie: ic.segCoterie, Err: ic.segErr,
	})
	if ic.firstErr == nil && ic.segErr != nil {
		ic.firstErr = fmt.Errorf("segment [%d,%d] coterie %v: %w",
			ic.segStart, end, ic.segCoterie, ic.segErr)
	}
}

// History returns the history the checker is evaluating.
func (ic *IncrementalChecker) History() *history.History { return ic.h }

// Problem returns the Σ the checker evaluates.
func (ic *IncrementalChecker) Problem() Problem { return ic.sigma }

// Stab returns the stabilization budget the checker enforces.
func (ic *IncrementalChecker) Stab() int { return ic.stab }

// Segments returns the per-segment results accumulated so far, closed
// segments first and the open segment (End = current history length)
// last. It mirrors history.StableSegments with each segment's first
// window violation attached — trace replay renders its event stream
// from it.
func (ic *IncrementalChecker) Segments() []SegmentResult {
	out := make([]SegmentResult, 0, len(ic.closed)+1)
	out = append(out, ic.closed...)
	out = append(out, SegmentResult{
		Start: ic.segStart, End: ic.h.Len(), Coterie: ic.segCoterie, Err: ic.segErr,
	})
	return out
}

// Verdict returns the Definition 2.4 verdict of the history recorded so
// far: nil, or the first window violation of the earliest failed segment,
// wrapped with that segment's span and coterie.
func (ic *IncrementalChecker) Verdict() error {
	if ic.stabErr != nil {
		return ic.stabErr
	}
	if ic.firstErr != nil {
		return ic.firstErr
	}
	if ic.segErr != nil {
		return fmt.Errorf("segment [%d,%d] coterie %v: %w",
			ic.segStart, ic.h.Len(), ic.segCoterie, ic.segErr)
	}
	return nil
}

// Measure reports MeasureStabilization of the history recorded so far.
// Unlike Verdict it re-walks the final segment (the measurement
// quantifies over candidate start rounds, which window state does not
// retain), so call it at measurement points rather than per round.
func (ic *IncrementalChecker) Measure() StabilizationMeasurement {
	return MeasureStabilization(ic.h, ic.sigma)
}
