package chaos

import (
	"fmt"

	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// This file bridges live (wall-clock) runs into the paper's Definition 2.4
// machinery. A soak run has no synchronous rounds, but it has poll
// windows: the harness periodically inspects every process's decision
// register. Treating each poll as one observed "round" — with chaos
// episodes and restarts-from-garbage recorded as systemic failure marks —
// yields a history.History the existing core.CheckFTSS /
// trace.VerdictFrom machinery evaluates verbatim: after every
// de-stabilizing event the system must re-satisfy Σ within the
// stabilization budget and keep satisfying it until the next event.

// DecisionCell is the externally observable state of one process at one
// poll: its decision register.
type DecisionCell struct {
	// OK reports whether the process currently holds a decision.
	OK bool
	// Round is the register's round (lattice key).
	Round uint64
	// Val is the decision value.
	Val int64
}

// String implements fmt.Stringer.
func (c DecisionCell) String() string {
	if !c.OK {
		return "⊥"
	}
	return fmt.Sprintf("%d@%d", c.Val, c.Round)
}

// Recorder accumulates poll observations into a history.
type Recorder struct {
	n     int
	polls uint64
	h     *history.History
	ins   *RecorderInstruments

	// Reusable observation buffers: the history copies what it keeps, so
	// one poll's Observation can be rebuilt in place for the next. The
	// full-mesh delivery map never changes and is built once.
	start     map[proc.ID]round.Snapshot
	delivered map[proc.ID][]round.Message

	// cells[p] is the DecisionCell last boxed for p. The history keeps
	// every poll's snapshots, so an unchanged register is boxed once and
	// shared by every poll that records it, and processes that agree in a
	// poll share one box; a box is reused only after comparing it with
	// the new cell.
	cells []any
}

// RecorderInstruments holds the verdict recorder's telemetry hooks. Nil
// counters and a nil Sink are no-ops. Events are stamped with the poll
// count — the recorder's logical clock — never wall time, so a seeded
// soak replays to an identical event stream.
type RecorderInstruments struct {
	// Polls counts recorded observations.
	Polls *obs.Counter
	// Marks counts systemic-failure marks (chaos episodes, corrupted
	// restarts) — each opens a new Definition 2.4 segment.
	Marks *obs.Counter
	// Sink receives poll (with the up-process count) and systemic events.
	Sink obs.Sink
}

// Instrument attaches telemetry hooks; nil detaches.
func (r *Recorder) Instrument(ins *RecorderInstruments) { r.ins = ins }

// NewRecorder builds a recorder for an n-process live run. No process is
// designated faulty: under crash-restart every process eventually
// executes its protocol again, which is the paper's definition of correct
// (§2.1) — the disruptions are systemic events, recorded via Mark.
func NewRecorder(n int) *Recorder {
	r := &Recorder{
		n:         n,
		h:         history.New(n, proc.NewSet()),
		start:     make(map[proc.ID]round.Snapshot, n),
		delivered: make(map[proc.ID][]round.Message, n),
		cells:     make([]any, n),
	}
	// The live cluster is completely connected and gossips continuously;
	// between marks every process causally reaches every other within a
	// poll. Recording a full mesh keeps the coterie maximal and stable so
	// that segment boundaries come only from the Marks — the chaos events
	// themselves.
	for q := 0; q < n; q++ {
		msgs := make([]round.Message, 0, n)
		for p := 0; p < n; p++ {
			msgs = append(msgs, round.Message{From: proc.ID(p)})
		}
		r.delivered[proc.ID(q)] = msgs
	}
	return r
}

// Observe appends one poll: up holds the processes currently running,
// cells their decision registers. Down processes are recorded as absent
// (they must not be required to agree while down). A poll is an instant,
// so it is recorded without an End: the history keeps one snapshot row.
func (r *Recorder) Observe(up proc.Set, cells map[proc.ID]DecisionCell) {
	r.polls++
	clear(r.start)
	var last any // the box of the process recorded before p in this poll
	up.ForEach(func(p proc.ID) {
		last = r.box(p, cells[p], last)
		r.start[p] = round.Snapshot{Clock: r.polls, Decided: last}
	})
	// The history copies what it keeps (the round.Observation ownership
	// contract), so the buffers — including the constant full-mesh
	// delivery map — are safely reused across polls.
	r.h.ObserveRound(round.Observation{
		Round:     r.polls,
		Alive:     up,
		Start:     r.start,
		Delivered: r.delivered,
		Deviated:  proc.Set{},
	})
	if r.ins != nil {
		r.ins.Polls.Inc()
		if r.ins.Sink != nil {
			r.ins.Sink.Emit(obs.Event{
				Kind: "poll", T: r.polls, P: -1,
				Fields: []obs.KV{{K: "up", V: int64(up.Len())}},
			})
		}
	}
}

// box returns c boxed, reusing p's last box when it holds an equal cell,
// else last, the box of the process recorded before p in this poll, when
// that holds one: a poll whose processes agree boxes a new cell once. A
// process outside [0, n) gets a fresh box.
func (r *Recorder) box(p proc.ID, c DecisionCell, last any) any {
	if p < 0 || int(p) >= len(r.cells) {
		return c
	}
	if old, ok := r.cells[p].(DecisionCell); !ok || old != c {
		if prev, ok := last.(DecisionCell); ok && prev == c {
			r.cells[p] = last
		} else {
			r.cells[p] = c
		}
	}
	return r.cells[p]
}

// Mark records a de-stabilizing systemic event (a chaos episode starting,
// a restart from corrupted state) between the previous poll and the next.
func (r *Recorder) Mark() {
	r.h.MarkSystemicFailure()
	if r.ins != nil {
		r.ins.Marks.Inc()
		if r.ins.Sink != nil {
			r.ins.Sink.Emit(obs.Event{Kind: "systemic", T: r.polls, P: -1})
		}
	}
}

// Watch attaches an incremental Definition 2.4 checker for the soak Σ
// (StableAgreement) with the given stabilization budget in polls: every
// subsequent Observe extends the verdict in O(1) amortized work, so a
// long soak can report progressive verdicts with memory independent of
// the poll count.
func (r *Recorder) Watch(stab int) *core.IncrementalChecker {
	return core.NewIncrementalChecker(r.h, StableAgreement, stab)
}

// History returns the accumulated history for core/trace checking.
func (r *Recorder) History() *history.History { return r.h }

// Polls returns how many observations have been recorded.
func (r *Recorder) Polls() uint64 { return r.polls }

// StableAgreement is the soak Σ: in every observed poll of the window,
// every up process holds a decision, all held decisions are equal, and
// the common register never changes between polls — the asynchronous
// eventual-stable-agreement notion projected onto poll windows. Feed it
// to core.CheckFTSS with a stabilization budget in polls.
var StableAgreement = Agreement("eventual-stable-agreement (soak)",
	func(prev, cur DecisionCell) string {
		if cur != prev {
			return fmt.Sprintf("common register changed %v → %v", prev, cur)
		}
		return ""
	})

// Agreement returns the Σ of a poll history that is named name: in every
// poll of the window, every up process outside F holds a decision and all
// of them hold the same cell. between judges each poll's common cell
// against the previous poll's, both inside the window, and returns the
// violation's detail, or "" if the pair is admissible.
func Agreement(name string, between func(prev, cur DecisionCell) string) core.Problem {
	return &agreement{name: name, between: between}
}

type agreement struct {
	name    string
	between func(prev, cur DecisionCell) string
}

// Name implements core.Problem.
func (a *agreement) Name() string { return a.name }

// NewWindow implements core.Problem.
func (a *agreement) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return &agreementWindow{agreement: a, h: h, faulty: faulty}
}

// agreementWindow carries the only cross-poll state, the previous poll's
// common cell, across extensions.
type agreementWindow struct {
	*agreement
	h        *history.History
	faulty   proc.Set
	prev     DecisionCell
	havePrev bool
}

// Extend implements core.WindowChecker. It walks the IDs 0..n−1, which
// visits the up processes in the order Sorted would, without allocating.
func (w *agreementWindow) Extend(r int) error {
	h, up := w.h, w.h.AliveAt(r)
	var common DecisionCell
	have := false
	for i := 0; i < h.N(); i++ {
		p := proc.ID(i)
		if !up.Has(p) || w.faulty.Has(p) {
			continue
		}
		snap, _ := h.SnapshotAt(r, p)
		cell, _ := snap.Decided.(DecisionCell)
		switch {
		case !cell.OK:
			return w.violation(r, fmt.Sprintf("%v holds no decision", p))
		case !have:
			common, have = cell, true
		case cell != common:
			return w.violation(r, fmt.Sprintf("%v holds %v, others hold %v", p, cell, common))
		}
	}
	if !have {
		return nil
	}
	if w.havePrev {
		if d := w.between(w.prev, common); d != "" {
			return w.violation(r, d)
		}
	}
	w.prev, w.havePrev = common, true
	return nil
}

func (w *agreementWindow) violation(r int, detail string) error {
	return &core.Violation{Problem: w.name, Round: r, Detail: detail}
}
