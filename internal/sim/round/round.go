// Package round implements the paper's synchronous system model (§2): a
// perfectly synchronous, completely-connected network in which computation
// proceeds in rounds numbered from 1 by an external observer. In each round
// every non-crashed process broadcasts one message, then processes
// everything it received.
//
// The engine enforces the model's ground rules:
//
//   - Message delivery time is constant: a round-r broadcast is delivered at
//     the end of round r or never. The one exception is a Lag schedule
//     attached with SetLag, which models synchronous but not perfectly
//     synchronized systems (§3's opening): it may hold a message back to
//     the end of round r+1. The lag is the environment's, not a process
//     failure, so correct processes' messages may be late too.
//   - Only designated-faulty processes lose messages or crash; the failure
//     schedule comes from a failure.Adversary.
//   - Every process, correct or faulty, receives its own broadcast
//     (footnote 1 of the paper).
//   - Crashes happen at round boundaries: a process crashed at round r takes
//     no step in round r or later. (A mid-round crash is expressible as
//     send-omission in the last round followed by a crash.)
//
// Systemic failures are injected with Engine.Corrupt, which strikes process
// state between rounds; the protocol code is never altered, matching the
// paper's definition of a self-stabilization failure.
//
//ftss:det the synchronous engine must replay identically from a seed
package round

import (
	"fmt"
	"math/rand"

	"ftss/internal/failure"
	"ftss/internal/obs"
	"ftss/internal/proc"
)

// Message is one broadcast payload as received by a particular process.
type Message struct {
	From    proc.ID
	Payload any
}

// Snapshot captures the externally meaningful part of a process state at
// the start of a round: the distinguished round variable c_p, the rest of
// the state s_p (protocol-specific, for the trace), and any output the
// process has produced so far.
type Snapshot struct {
	// Clock is the value of the distinguished round variable c_p. Because
	// of systemic failures it need not equal the actual round number.
	Clock uint64
	// State is a protocol-specific, immutable description of s_p.
	State any
	// Decided is the most recent output the process has produced (nil if
	// none). For repeated problems this is the latest iteration's output.
	Decided any
	// Halted reports whether the process has halted itself (relevant only
	// to uniform protocols, §2.2).
	Halted bool
}

// Process is a round-based protocol instance driven by the Engine.
//
// The actual round number is deliberately absent from this interface: the
// paper's processes cannot observe it, only their own (corruptible) round
// variable.
type Process interface {
	// ID returns the process identifier.
	ID() proc.ID
	// StartRound returns the payload the process broadcasts this round,
	// or nil to stay silent.
	StartRound() any
	// EndRound delivers the messages the process received this round,
	// sorted by sender. The slice is only valid for the duration of the
	// call: the engine may reuse its backing storage on the next round, so
	// implementations must not retain it (retaining the payloads is fine).
	EndRound(received []Message)
	// Snapshot reports the process state for the execution trace. It must
	// not alias mutable internals.
	Snapshot() Snapshot
}

// Observation records everything that happened in one actual round: the
// paper's "round history" (state at the start of the round plus the actions
// taken during it).
//
// Ownership: every field is owned by the producer (the engine reuses its
// observation buffers from round to round) and is only valid for the
// duration of the ObserveRound call. Observers must clone the sets and
// copy the maps/slices they retain.
type Observation struct {
	// Round is the actual round number, starting at 1.
	Round uint64
	// Alive holds the processes that had not crashed at the start of the
	// round.
	Alive proc.Set
	// Start maps each alive process to its state at the start of the round.
	Start map[proc.ID]Snapshot
	// Delivered maps each alive process to the messages it received,
	// including any a Lag held back from the previous round.
	Delivered map[proc.ID][]Message
	// End maps each alive process to its state at the end of the round
	// (after absorbing deliveries). A systemic failure striking between
	// rounds r and r+1 makes it differ from the Start snapshot of round
	// r+1; recording it here also makes the final recorded round's end
	// state, which the Rate condition of Assumption 1 references,
	// available to checkers. A nil End means every alive process ended the
	// round in the state it started.
	End map[proc.ID]Snapshot
	// Deviated holds the processes that deviated from their protocol in
	// this round (an actual message loss, or a crash taking effect).
	Deviated proc.Set
}

// Lag decides whether the round-r message from `from` to `to` is delivered
// one round late. Implementations must be deterministic.
type Lag interface {
	Late(r uint64, from, to proc.ID) bool
}

// Observer consumes per-round observations, typically to build a history
// for coterie computation and problem checking.
type Observer interface {
	ObserveRound(o Observation)
}

// Engine executes a synchronous round-based system.
type Engine struct {
	procs    []Process
	byID     []Process // dense, indexed by proc.ID (IDs are 0..n−1)
	adv      failure.Adversary
	obs      []Observer
	round    uint64 // next round to execute
	crashed  proc.Set
	designed proc.Set // designated faulty set, cached

	// Reusable per-round scratch, dense by process ID. The inbox buffers
	// are handed to EndRound and recycled on the next Step.
	aliveIDs []proc.ID
	sent     []any
	inbox    [][]Message
	deviated proc.Set

	// Reusable observation buffers (allocated on first observed Step).
	// Observations are only valid during ObserveRound, so these are
	// cleared and refilled each round instead of freshly allocated.
	obsAlive     proc.Set
	obsStart     map[proc.ID]Snapshot
	obsDelivered map[proc.ID][]Message
	obsEnd       map[proc.ID]Snapshot

	// ins holds optional telemetry hooks; nil disables all telemetry.
	ins *Instruments

	// lag is the optional delivery-lag schedule (nil: perfect synchrony).
	// late holds the messages it held back this round and due those held
	// back last round, per receiver and sorted by sender; Step swaps them.
	lag       Lag
	late, due [][]Message
}

// NewEngine builds an engine over the given processes and adversary.
// Process IDs must be dense 0..n−1 and unique.
func NewEngine(procs []Process, adv failure.Adversary) (*Engine, error) {
	if adv == nil {
		adv = failure.None{}
	}
	byID := make([]Process, len(procs))
	for _, p := range procs {
		id := p.ID()
		if int(id) < 0 || int(id) >= len(procs) {
			return nil, fmt.Errorf("process id %v out of range [0,%d)", id, len(procs))
		}
		if byID[id] != nil {
			return nil, fmt.Errorf("duplicate process id %v", id)
		}
		byID[id] = p
	}
	// The per-round scratch is sized once here, with every inbox at full
	// fan-in capacity, so steady-state Steps allocate nothing for message
	// routing: lazy growth inside Step would charge ~2× the final
	// footprint in doubling garbage to the first rounds (the n=256
	// coterie benchmarks' dominant B/op term before this was hoisted).
	inbox := make([][]Message, len(procs))
	for i := range inbox {
		inbox[i] = make([]Message, 0, len(procs))
	}
	return &Engine{
		procs:    procs,
		byID:     byID,
		adv:      adv,
		round:    1,
		crashed:  proc.NewSet(),
		aliveIDs: make([]proc.ID, 0, len(procs)),
		sent:     make([]any, len(procs)),
		inbox:    inbox,
		designed: adv.Faulty().Clone(),
	}, nil
}

// MustNewEngine is NewEngine that panics on configuration errors; intended
// for tests and examples where the configuration is static.
func MustNewEngine(procs []Process, adv failure.Adversary) *Engine {
	e, err := NewEngine(procs, adv)
	if err != nil {
		panic(err)
	}
	return e
}

// SetLag attaches a delivery-lag schedule. Attach it before the first
// Step; nil keeps the perfectly synchronous model. A held-back message
// lands at the end of the next round, merged into the receiver's inbox in
// sender order (the held-back message first on a sender tie). It is lost
// if the receiver has crashed by then, and delivered even if the sender
// has. Self-delivery is never late, and adversary drops are decided first.
func (e *Engine) SetLag(l Lag) {
	e.lag = l
	// Every buffer is sized for its worst case (n on-time messages plus
	// n−1 held back), so lagged Steps allocate nothing for routing either.
	n := len(e.procs)
	e.late, e.due = make([][]Message, n), make([][]Message, n)
	for i := range e.inbox {
		e.inbox[i] = make([]Message, 0, 2*n)
		e.late[i], e.due[i] = make([]Message, 0, n), make([]Message, 0, n)
	}
}

// Observe registers an observer that will see every subsequent round.
func (e *Engine) Observe(o Observer) { e.obs = append(e.obs, o) }

// N returns the number of processes in the system.
func (e *Engine) N() int { return len(e.procs) }

// Round returns the next actual round number to be executed.
func (e *Engine) Round() uint64 { return e.round }

// Crashed returns the set of processes crashed at the start of the next
// round.
func (e *Engine) Crashed() proc.Set { return e.crashed.Clone() }

// Process returns the process with the given ID, or nil.
func (e *Engine) Process(id proc.ID) Process {
	if int(id) < 0 || int(id) >= len(e.byID) {
		return nil
	}
	return e.byID[id]
}

// Corrupt injects a systemic failure into every process in ids that
// implements failure.Corruptible, using the seeded rng. It returns the
// number of processes struck. Call it between rounds.
func (e *Engine) Corrupt(rng *rand.Rand, ids proc.Set) int {
	n := 0
	for _, id := range ids.Sorted() {
		p := e.Process(id)
		if p == nil {
			continue
		}
		if c, ok := p.(failure.Corruptible); ok {
			c.Corrupt(rng)
			n++
		}
	}
	return n
}

// CorruptEverything strikes all processes.
func (e *Engine) CorruptEverything(rng *rand.Rand) int {
	return e.Corrupt(rng, proc.Universe(len(e.procs)))
}

// Step executes one round: crashes take effect, alive processes broadcast,
// the adversary filters deliveries, the lag schedule (if any) holds some
// back a round, alive processes absorb what arrived, and observers are
// notified.
//
// Deliveries are bucketed per receiver by iterating senders in increasing
// ID order, so each inbox is sorted by sender by construction; held-back
// messages, sorted the same way, are inserted in place. The engine reuses its per-round buffers whether or not observers
// are registered (observers must copy what they retain — see Observation),
// so a steady-state round allocates almost nothing beyond what the
// protocols themselves allocate.
func (e *Engine) Step() {
	r := e.round
	n := len(e.procs)
	observed := len(e.obs) > 0
	if e.deviated.IsZero() {
		e.deviated = proc.NewSetCap(n)
	}
	deviated := e.deviated
	deviated.Clear()

	// Crashes scheduled for this round take effect before any step.
	for _, p := range e.procs {
		id := p.ID()
		if e.crashed.Has(id) {
			continue
		}
		if cr := e.adv.CrashRound(id); cr != 0 && r >= cr && e.designed.Has(id) {
			e.crashed.Add(id)
			deviated.Add(id)
			if e.ins != nil {
				e.ins.Crashes.Inc()
				if e.ins.Sink != nil {
					e.ins.Sink.Emit(obs.Event{Kind: "crash", T: r, P: int(id)})
				}
			}
		}
	}

	// Alive IDs in increasing order: a counting pass over the dense ID
	// space, not a set sort. The scratch buffers were sized at
	// construction (NewEngine), so this never allocates.
	aliveIDs := e.aliveIDs[:0]
	for i := 0; i < n; i++ {
		if !e.crashed.Has(proc.ID(i)) {
			aliveIDs = append(aliveIDs, proc.ID(i))
		}
	}
	e.aliveIDs = aliveIDs

	if e.ins != nil && e.ins.Sink != nil {
		e.ins.Sink.Emit(obs.Event{
			Kind: "round_start", T: r, P: -1,
			Fields: []obs.KV{{K: "alive", V: int64(len(aliveIDs))}},
		})
	}

	var start map[proc.ID]Snapshot
	if observed {
		if e.obsStart == nil {
			e.obsAlive = proc.NewSetCap(n)
			e.obsStart = make(map[proc.ID]Snapshot, n)
			e.obsDelivered = make(map[proc.ID][]Message, n)
			e.obsEnd = make(map[proc.ID]Snapshot, n)
		}
		start = e.obsStart
		clear(start)
	}
	for _, id := range aliveIDs {
		p := e.byID[id]
		if observed {
			start[id] = p.Snapshot()
		}
		e.sent[id] = p.StartRound()
	}

	if e.lag != nil {
		e.late, e.due = e.due, e.late
		for i := range e.late {
			e.late[i] = e.late[i][:0]
		}
	}
	nDelivered, nDropped := 0, 0
	for _, to := range aliveIDs {
		msgs := e.inbox[to][:0]
		for _, from := range aliveIDs {
			payload := e.sent[from]
			if payload == nil {
				continue
			}
			if from != to { // self-delivery is unconditional (footnote 1)
				if e.designed.Has(from) && e.adv.DropSend(r, from, to) {
					deviated.Add(from)
					nDropped++
					e.dropEvent(r, "send", from, to)
					continue
				}
				if e.designed.Has(to) && e.adv.DropRecv(r, from, to) {
					deviated.Add(to)
					nDropped++
					e.dropEvent(r, "recv", from, to)
					continue
				}
				if e.lag != nil && e.lag.Late(r, from, to) {
					e.late[to] = append(e.late[to], Message{From: from, Payload: payload})
					continue
				}
			}
			msgs = append(msgs, Message{From: from, Payload: payload})
			nDelivered++
		}
		if e.lag != nil {
			// Insert last round's held-back messages by sender, each ahead
			// of an on-time message from the same sender.
			for _, m := range e.due[to] {
				msgs = append(msgs, m)
				i := len(msgs) - 1
				for ; i > 0 && msgs[i-1].From >= m.From; i-- {
					msgs[i] = msgs[i-1]
				}
				msgs[i] = m
			}
			nDelivered += len(e.due[to])
		}
		e.inbox[to] = msgs
	}

	var end map[proc.ID]Snapshot
	if observed {
		end = e.obsEnd
		clear(end)
	}
	for _, id := range aliveIDs {
		p := e.byID[id]
		p.EndRound(e.inbox[id])
		if observed {
			end[id] = p.Snapshot()
		}
	}

	if observed {
		alive, delivered := e.obsAlive, e.obsDelivered
		alive.Clear()
		clear(delivered)
		for _, id := range aliveIDs {
			alive.Add(id)
			delivered[id] = e.inbox[id]
		}
		o := Observation{
			Round:     r,
			Alive:     alive,
			Start:     start,
			Delivered: delivered,
			End:       end,
			Deviated:  deviated,
		}
		for _, ob := range e.obs {
			ob.ObserveRound(o)
		}
	}
	for i := range e.sent {
		e.sent[i] = nil
	}
	if e.ins != nil {
		e.stepTelemetry(r, len(aliveIDs), nDelivered, nDropped)
	}

	e.round++
}

// dropEvent emits a msg_drop event for an adversary-suppressed message.
// Kept out of line so the common deliver path stays branch-light.
func (e *Engine) dropEvent(r uint64, how string, from, to proc.ID) {
	if e.ins == nil || e.ins.Sink == nil {
		return
	}
	e.ins.Sink.Emit(obs.Event{
		Kind: "msg_drop", T: r, P: int(to), Detail: how,
		Fields: []obs.KV{{K: "from", V: int64(from)}, {K: "to", V: int64(to)}},
	})
}

// Run executes the next `rounds` rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Step()
	}
}
