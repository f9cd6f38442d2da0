// Package history records synchronous executions and computes the causal
// structures of §2.1 of the paper: happened-before influence sets
// ([Lam78]), the coterie of a history prefix (Definition 2.3), the faulty
// set F(H,Π) of each prefix, and the maximal coterie-stable segments whose
// boundaries are the paper's "de-stabilizing events".
//
// Influence sets are maintained incrementally: after t rounds, the
// influence set of q is the set of processes p whose round-1 event
// happened-before some event of q in the first t rounds (p →_H q). The
// coterie of the t-prefix is the intersection of those sets over all
// processes q that are correct in that prefix. Because influence sets only
// grow and the faulty set only grows, the coterie is monotone
// non-decreasing in t; a de-stabilizing event is precisely a round in
// which a process enters the coterie.
//
// Storage is compact: each observed round is reduced to dense
// per-process snapshot rows plus cloned alive/deviated sets at append
// time, and the alive set and the faulty/coterie caches share their
// backing arrays between rounds in which nothing changed. Only the
// current influence sets are kept: nothing reads a past one. In a
// saturated steady state (influence full, faulty stable) appending a
// round performs no causal recomputation at all.
//
//ftss:det causal analyses feed golden experiment output
package history

import (
	"fmt"
	"slices"

	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// roundRec is the compact record of one observed round. snaps is the
// start row, then the end row when the observation gave one; each row is
// dense by process ID and meaningful only where alive has the ID. A round
// observed without End (a poll) has one row, its start row, which is also
// its end state. Neither message payloads nor delivery edges are
// retained: the incremental caches never read past deliveries.
type roundRec struct {
	alive    proc.Set
	deviated proc.Set
	snaps    []round.Snapshot
}

// History is a recorded synchronous execution plus incrementally maintained
// causal caches. It implements round.Observer; attach it to an engine with
// Engine.Observe before running.
//
// ObserveRound copies what it keeps, per the round.Observation ownership
// contract: a History never aliases engine-owned buffers.
type History struct {
	n          int
	designated proc.Set
	recs       []roundRec

	// influence[q] is q's influence set over the rounds recorded so far,
	// dense by process ID. A round that grows a set replaces the row with
	// a copy, so the whole round reads last round's sets.
	influence []proc.Set
	// faulty[t] is F of the t-prefix (processes that have deviated by the
	// end of round t). Rounds without new deviators share the set.
	faulty []proc.Set
	// coterie[t] is the coterie of the t-prefix. Shared with coterie[t-1]
	// when neither influence nor faulty changed in round t.
	coterie []proc.Set
	// marks holds prefix lengths after which a systemic failure struck
	// (see MarkSystemicFailure).
	marks []int

	onAppend []func(t int)
}

// New creates an empty history for a system of n processes with the given
// designated faulty set (the paper's bound f; may be empty).
func New(n int, designated proc.Set) *History {
	inf := make([]proc.Set, n)
	for i := 0; i < n; i++ {
		inf[i] = proc.NewSetCap(n)
		inf[i].Add(proc.ID(i))
	}
	h := &History{
		n:          n,
		designated: designated.Clone(),
		influence:  inf,
		faulty:     []proc.Set{proc.NewSet()},
	}
	h.coterie = []proc.Set{h.computeCoterie()}
	return h
}

var _ round.Observer = (*History)(nil)

// OnAppend registers a hook invoked after each observed round has been
// folded into the causal caches, with the new prefix length. Incremental
// checkers attach here to extend their verdicts in O(delta) per round.
func (h *History) OnAppend(fn func(t int)) {
	h.onAppend = append(h.onAppend, fn)
}

// ObserveRound implements round.Observer, appending one round and updating
// the causal caches.
func (h *History) ObserveRound(o round.Observation) {
	t := len(h.recs) // prefix length before this round
	if o.Round != uint64(t+1) {
		panic(fmt.Sprintf("history: observed round %d, expected %d", o.Round, t+1))
	}
	rows := 1
	if o.End != nil {
		rows = 2
	}
	rec := roundRec{snaps: make([]round.Snapshot, rows*h.n)}
	if t > 0 && o.Alive.Equal(h.recs[t-1].alive) {
		rec.alive = h.recs[t-1].alive // unchanged: share it, as the coterie is shared
	} else {
		rec.alive = o.Alive.Clone()
	}
	if o.Deviated.Len() > 0 {
		rec.deviated = o.Deviated.Clone()
	}
	for i := 0; i < h.n; i++ {
		id := proc.ID(i)
		if !rec.alive.Has(id) {
			continue
		}
		rec.snaps[i] = o.Start[id]
		if o.End != nil {
			rec.snaps[h.n+i] = o.End[id]
		}
	}
	h.recs = append(h.recs, rec)

	prev := h.influence
	next := prev // aliased until some influence set grows
	for q := 0; q < h.n; q++ {
		msgs, ok := o.Delivered[proc.ID(q)]
		if !ok {
			continue
		}
		grown := prev[q]
		copied := false
		for _, m := range msgs {
			src := prev[m.From]
			if src.Subset(grown) {
				continue
			}
			if !copied {
				grown = grown.Clone()
				copied = true
			}
			grown.UnionWith(src)
		}
		if copied {
			if &next[0] == &prev[0] {
				next = make([]proc.Set, h.n)
				copy(next, prev)
			}
			next[q] = grown
		}
	}
	influenceGrew := &next[0] != &prev[0]
	h.influence = next

	f := h.faulty[t]
	faultyGrew := false
	if o.Deviated.Len() > 0 && !o.Deviated.Subset(f) {
		f = f.Union(o.Deviated)
		faultyGrew = true
	}
	h.faulty = append(h.faulty, f)

	if influenceGrew || faultyGrew {
		h.coterie = append(h.coterie, h.computeCoterie())
	} else {
		// Both inputs of Definition 2.3 are unchanged, so the coterie is
		// unchanged; share the set rather than recomputing it.
		h.coterie = append(h.coterie, h.coterie[t])
	}

	for _, fn := range h.onAppend {
		fn(t + 1)
	}
}

// computeCoterie returns the coterie of the prefix recorded so far.
func (h *History) computeCoterie() proc.Set {
	// One Universe allocation is inherent (the result is retained in
	// h.coterie); the intersection itself is in place, with no per-process
	// clones.
	cot := proc.Universe(h.n)
	f := h.faulty[len(h.faulty)-1]
	for i := 0; i < h.n; i++ {
		if f.Has(proc.ID(i)) {
			continue
		}
		cot.IntersectWith(h.influence[i])
	}
	return cot
}

// Len returns the number of recorded rounds.
func (h *History) Len() int { return len(h.recs) }

// N returns the number of processes.
func (h *History) N() int { return h.n }

// Designated returns the designated faulty set.
func (h *History) Designated() proc.Set { return h.designated.Clone() }

// AliveAt returns the set of processes alive in actual round r (1-based).
// The returned set is shared internal state: callers must treat it as
// read-only.
func (h *History) AliveAt(r int) proc.Set { return h.recs[r-1].alive }

// DeviatedAt returns the set of processes that deviated in actual round r.
// Read-only, like AliveAt.
func (h *History) DeviatedAt(r int) proc.Set { return h.recs[r-1].deviated }

// FaultyUpTo returns F of the t-prefix: the processes that actually
// deviated from their protocol in rounds 1..t. t may be 0..Len().
func (h *History) FaultyUpTo(t int) proc.Set { return h.faulty[t].Clone() }

// FaultyUpToView is FaultyUpTo without the defensive copy. The returned
// set is shared internal state: callers must treat it as read-only.
func (h *History) FaultyUpToView(t int) proc.Set { return h.faulty[t] }

// Faulty returns F(H,Π) of the whole recorded history.
func (h *History) Faulty() proc.Set { return h.FaultyUpTo(h.Len()) }

// Influence returns the set of processes p with p →_H q in the whole
// recorded history.
func (h *History) Influence(q proc.ID) proc.Set {
	return h.influence[int(q)].Clone()
}

// CoterieAt returns the coterie of the t-prefix (Definition 2.3). t may be
// 0..Len().
func (h *History) CoterieAt(t int) proc.Set { return h.coterie[t].Clone() }

// CoterieAtView is CoterieAt without the defensive copy. The returned set
// is shared internal state: callers must treat it as read-only. Checkers
// that walk every prefix should prefer it over CoterieAt.
func (h *History) CoterieAtView(t int) proc.Set { return h.coterie[t] }

// Coterie returns the coterie of the whole recorded history.
func (h *History) Coterie() proc.Set { return h.CoterieAt(h.Len()) }

// ClockAt returns c_p at the start of actual round r, and whether p was
// alive then. r ranges over 1..Len().
func (h *History) ClockAt(r int, p proc.ID) (uint64, bool) {
	rec := &h.recs[r-1]
	if !rec.alive.Has(p) {
		return 0, false
	}
	return rec.snaps[int(p)].Clock, true
}

// SnapshotAt returns p's full snapshot at the start of actual round r.
func (h *History) SnapshotAt(r int, p proc.ID) (round.Snapshot, bool) {
	rec := &h.recs[r-1]
	if !rec.alive.Has(p) {
		return round.Snapshot{}, false
	}
	return rec.snaps[int(p)], true
}

// SnapshotAtEnd returns p's snapshot at the end of actual round r, before
// any systemic failure struck between rounds r and r+1: it need not equal
// SnapshotAt(r+1, p). It is available for the final recorded round too.
// A round observed without End (a poll) ended in the state it started,
// so there it is SnapshotAt(r, p).
func (h *History) SnapshotAtEnd(r int, p proc.ID) (round.Snapshot, bool) {
	rec := &h.recs[r-1]
	if !rec.alive.Has(p) {
		return round.Snapshot{}, false
	}
	i := int(p)
	if len(rec.snaps) > h.n {
		i += h.n
	}
	return rec.snaps[i], true
}

// Segment is a maximal run of prefix lengths with a constant coterie.
// Start is the prefix length at which this coterie value first held; End is
// the last prefix length with that value (inclusive). The de-stabilizing
// event, if any, occurred during round Start (i.e., between prefixes
// Start−1 and Start).
type Segment struct {
	Start, End int
	Coterie    proc.Set
}

// MarkSystemicFailure records that a systemic failure struck between the
// rounds recorded so far and the next one. The paper analyzes behavior
// following the final systemic failure; StableSegments therefore treats
// the first round executed from the corrupted state as a de-stabilizing
// boundary, restarting the stabilization clock. Call it right after
// corrupting process state between engine steps.
func (h *History) MarkSystemicFailure() {
	h.marks = append(h.marks, h.Len())
}

// SystemicFailureMarks returns the prefix lengths after which systemic
// failures were recorded.
func (h *History) SystemicFailureMarks() []int {
	return append([]int(nil), h.marks...)
}

// OpensSegment reports whether prefix t (start < t ≤ Len()) opens a new
// stable segment after the one whose first prefix is start. The boundary
// is a de-stabilizing event: a coterie change, or the first round executed
// after a recorded systemic failure. StableSegments and core's incremental
// checker both cut their segments here.
func (h *History) OpensSegment(start, t int) bool {
	if !h.coterie[t].Equal(h.coterie[start]) {
		return true
	}
	_, marked := slices.BinarySearch(h.marks, t-1) // marks never decrease
	return marked
}

// StableSegments partitions prefix lengths 0..Len() into maximal stable
// segments, in order, cut where OpensSegment says.
func (h *History) StableSegments() []Segment {
	var segs []Segment
	start := 0
	for t := 1; t <= h.Len(); t++ {
		if h.OpensSegment(start, t) {
			segs = append(segs, Segment{Start: start, End: t - 1, Coterie: h.coterie[start].Clone()})
			start = t
		}
	}
	segs = append(segs, Segment{Start: start, End: h.Len(), Coterie: h.coterie[start].Clone()})
	return segs
}

// DestabilizingRounds returns the actual rounds in which the coterie
// changed (a process entered the coterie).
func (h *History) DestabilizingRounds() []int {
	var rs []int
	for t := 1; t <= h.Len(); t++ {
		if !h.coterie[t].Equal(h.coterie[t-1]) {
			rs = append(rs, t)
		}
	}
	return rs
}
