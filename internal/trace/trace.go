// Package trace renders recorded executions as human-readable timelines:
// per-round clock/decision tables for synchronous histories, coterie and
// segment summaries, and Definition 2.4 verdict reports. The CLIs use it
// for their -trace flags and the examples for their narratives; it is also
// the debugging loupe for protocol work on top of this module.
//
//ftss:det rendered timelines are compared byte-for-byte in golden tests
package trace

import (
	"fmt"
	"io"
	"strings"

	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/superimpose"
)

// Options selects what the timeline includes.
type Options struct {
	// From and To bound the rounds rendered (1-based, inclusive); zero
	// values mean the whole history.
	From, To int
	// Clocks renders each process's round variable per round.
	Clocks bool
	// Decisions renders the latest decision register per round.
	Decisions bool
	// Suspects renders Π⁺ suspect sets (requires superimpose.Meta
	// snapshots).
	Suspects bool
	// Coterie renders the coterie after each round.
	Coterie bool
}

// Full enables everything.
func Full() Options {
	return Options{Clocks: true, Decisions: true, Suspects: true, Coterie: true}
}

// Timeline writes one line per round. A window that is empty after
// resolving the zero-value defaults — From past the end of the history,
// or an inverted explicit range (From > To) — renders nothing.
func Timeline(w io.Writer, h *history.History, opt Options) {
	from, to := opt.From, opt.To
	if from < 1 {
		from = 1
	}
	if to < 1 || to > h.Len() {
		to = h.Len()
	}
	if from > h.Len() || from > to {
		return
	}
	for r := from; r <= to; r++ {
		var parts []string
		parts = append(parts, fmt.Sprintf("r%-3d", r))
		alive := h.AliveAt(r)
		for _, p := range proc.Universe(h.N()).Sorted() {
			if !alive.Has(p) {
				parts = append(parts, fmt.Sprintf("p%d:†", int(p)))
				continue
			}
			cell := fmt.Sprintf("p%d:", int(p))
			snap, _ := h.SnapshotAt(r, p)
			if opt.Clocks {
				cell += fmt.Sprintf("c=%d", snap.Clock)
			}
			if opt.Suspects {
				if meta, ok := snap.State.(superimpose.Meta); ok && meta.Suspects.Len() > 0 {
					cell += fmt.Sprintf(" susp=%s", meta.Suspects)
				}
			}
			if opt.Decisions {
				if dec, ok := snap.Decided.(superimpose.Decision); ok && dec.OK {
					cell += fmt.Sprintf(" d=%d@%d", dec.Value, dec.Iteration)
				}
			}
			parts = append(parts, cell)
		}
		if opt.Coterie {
			parts = append(parts, "coterie="+h.CoterieAt(r).String())
		}
		if dev := h.DeviatedAt(r); dev.Len() > 0 {
			parts = append(parts, "deviated="+dev.String())
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
}

// Segments writes the coterie-stable segment structure: one line per
// segment with its span, coterie, and faulty set at the segment end.
func Segments(w io.Writer, h *history.History) {
	for _, seg := range h.StableSegments() {
		fmt.Fprintf(w, "prefixes [%d..%d]  coterie %s  faulty-by-end %s\n",
			seg.Start, seg.End, seg.Coterie, h.FaultyUpTo(seg.End))
	}
	if marks := h.SystemicFailureMarks(); len(marks) > 0 {
		fmt.Fprintf(w, "systemic failures after prefixes %v\n", marks)
	}
}

// VerdictFrom writes the Definition 2.4 verdict accumulated by an
// incremental checker and the measured stabilization for the final
// stable segment; the returned error is the checker's verdict, which is
// core.CheckFTSS's for core.EvalIncremental(h, Σ, stab). Harnesses that
// keep a checker attached to a growing history report progressively
// without re-evaluating windows.
func VerdictFrom(w io.Writer, ic *core.IncrementalChecker) error {
	err := ic.Verdict()
	if err == nil {
		fmt.Fprintf(w, "ftss-solves %q with stabilization time %d: SATISFIED\n",
			ic.Problem().Name(), ic.Stab())
	} else {
		fmt.Fprintf(w, "ftss-solves %q with stabilization time %d: VIOLATED\n  %v\n",
			ic.Problem().Name(), ic.Stab(), err)
	}
	m := ic.Measure()
	if m.Rounds >= 0 {
		fmt.Fprintf(w, "final segment: event at round %d, Σ satisfied from round %d (%d round(s))\n",
			m.EventRound, m.SatisfiedFrom, m.Rounds)
	} else {
		fmt.Fprintln(w, "final segment: Σ never satisfied")
	}
	return err
}

// Summary writes a one-paragraph overview: length, faulty set, coterie
// evolution, and systemic failure marks.
func Summary(w io.Writer, h *history.History) {
	fmt.Fprintf(w, "history: %d rounds, %d processes, designated faulty %s, actually faulty %s\n",
		h.Len(), h.N(), h.Designated(), h.Faulty())
	ev := h.DestabilizingRounds()
	fmt.Fprintf(w, "coterie events at rounds %v; final coterie %s\n", ev, h.Coterie())
}
