package trace

import (
	"ftss/internal/core"
	"ftss/internal/obs"
)

// EventsFrom emits the Definition 2.4 structure of an incremental
// checker's history onto an event stream: one coterie_change per
// de-stabilizing round, one systemic per recorded mark, a
// segment_open/segment_close pair per maximal stable segment (the close
// carries that segment's verdict under the checker's Σ and stabilization
// budget), and a final verdict event with the measurement m already taken
// from the checker. Events are stamped with prefix lengths / round
// numbers — the deterministic clocks of the history — so a seeded run
// replays to an identical stream. Emitting costs O(segments) and
// evaluates no window, so progressive harnesses can publish it
// repeatedly as the history grows.
//
// The returned error is the first per-segment violation, or
// core.CheckFTSS's rejection of stab < 1, in which case nothing is
// emitted.
func EventsFrom(sink obs.Sink, ic *core.IncrementalChecker, m core.StabilizationMeasurement) error {
	if ic.Stab() < 1 {
		return ic.Verdict()
	}
	h := ic.History()
	for _, r := range h.DestabilizingRounds() {
		sink.Emit(obs.Event{Kind: "coterie_change", T: uint64(r), P: -1,
			Fields: []obs.KV{{K: "coterie", V: int64(h.CoterieAtView(r).Len())}}})
	}
	for _, mark := range h.SystemicFailureMarks() {
		sink.Emit(obs.Event{Kind: "systemic", T: uint64(mark), P: -1})
	}

	var firstErr error
	for _, seg := range ic.Segments() {
		emitSegmentOpen(sink, seg.Start, seg.End, seg.Coterie.Len())
		if seg.Err != nil && firstErr == nil {
			firstErr = seg.Err
		}
		emitSegmentClose(sink, seg.Start, seg.End, seg.Err)
	}

	emitVerdict(sink, h.Len(), ic.Problem().Name(), ic.Stab(), firstErr == nil, m)
	return firstErr
}

func emitSegmentOpen(sink obs.Sink, start, end, coterie int) {
	sink.Emit(obs.Event{Kind: "segment_open", T: uint64(start), P: -1,
		Fields: []obs.KV{
			{K: "end", V: int64(end)},
			{K: "coterie", V: int64(coterie)},
		}})
}

func emitSegmentClose(sink obs.Sink, start, end int, segErr error) {
	ok := int64(1)
	detail := ""
	if segErr != nil {
		ok = 0
		detail = segErr.Error()
	}
	sink.Emit(obs.Event{Kind: "segment_close", T: uint64(end), P: -1, Detail: detail,
		Fields: []obs.KV{
			{K: "start", V: int64(start)},
			{K: "ok", V: ok},
		}})
}

func emitVerdict(sink obs.Sink, length int, name string, stab int, ok bool, m core.StabilizationMeasurement) {
	verdict := int64(1)
	if !ok {
		verdict = 0
	}
	sink.Emit(obs.Event{Kind: "verdict", T: uint64(length), P: -1, Detail: name,
		Fields: []obs.KV{
			{K: "ok", V: verdict},
			{K: "stab_budget", V: int64(stab)},
			{K: "event_round", V: int64(m.EventRound)},
			{K: "satisfied_from", V: int64(m.SatisfiedFrom)},
			{K: "measured_stab", V: int64(m.Rounds)},
		}})
}
