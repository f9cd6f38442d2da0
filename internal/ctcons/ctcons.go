// Package ctcons implements §3 of the paper: asynchronous Consensus
// relative to an Eventually Strong Failure Detector (◊S), in two variants.
//
// Baseline is the Chandra–Toueg rotating-coordinator protocol [CT91]
// (recast as a non-blocking state machine): rounds r = 0,1,2,… with
// coordinator r mod n; participants send their timestamped estimates to
// the coordinator, the coordinator proposes the estimate with the highest
// timestamp once it holds a majority, participants ack (adopting the
// proposal, then moving to the next round) or nack (when the detector
// suspects the coordinator), and a majority of acks lets the coordinator
// decide and broadcast the decision once. Messages for future rounds are
// buffered, as [CT91] requires — every process passes through every round.
// (With round adoption on, a higher round is jumped to instead, so nothing
// is ever buffered.) The baseline is correct for crash failures with f < n/2 from a GOOD
// initial state — and, as the tests demonstrate, it deadlocks or disagrees
// forever from corrupted states.
//
// Stabilizing is the paper's process-and-systemic-failure-tolerant
// derivation, obtained by superimposed mechanisms (§3):
//
//  1. Periodic re-send: until a process finishes a phase it re-sends every
//     message the [CT91] protocol requires for that phase on every step,
//     preventing the deadlock in which a corrupted initial state falsely
//     records messages as already sent ([KP90]'s technique).
//
//  2. Round agreement: every message is tagged with the sender's round
//     number and each process periodically announces its round; receiving
//     a higher round number abandons all work of the current round and
//     jumps to phase 1 of the new one. Stale-round messages are ignored.
//
//  3. Local sanitization: per-step clamping of locally-checkable
//     invariants (estimate timestamps never exceed the current round), in
//     the spirit of local checking and correction [ASV91].
//
// Decisions are write-many registers (a terminating write-once decision
// cannot survive systemic failures [KP90]): decided processes gossip
// (round, value) and everyone adopts the lexicographically largest
// decision seen. The correctness notion — matching the paper's
// non-terminating framing — is eventual stable agreement: eventually all
// correct processes hold equal decisions that never change again; on runs
// whose initial state is uncorrupted the common value is some process's
// input (validity).
//
//ftss:det consensus traces are diffed across repetitions
package ctcons

import (
	"fmt"
	"math/rand"

	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// Value is the consensus decision domain.
type Value int64

// SeededInputs derives an n-process input vector from the seed. Every
// driver of the §3 consensus uses it, and a networked node derives the
// same vector as its peers without an input distribution message.
func SeededInputs(seed int64, n int) []Value {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]Value, n)
	for i := range inputs {
		inputs[i] = Value(rng.Int63n(1000))
	}
	return inputs
}

// Message types. Every message carries the sender's round number; the
// stabilizing variant uses it both to ignore stale traffic and to pull
// laggards forward, the baseline to buffer future rounds' traffic.
type (
	// EstimateMsg is phase 1: participant → coordinator.
	EstimateMsg struct {
		Round uint64
		Val   Value
		TS    uint64
	}
	// ProposeMsg is phase 2: coordinator → all.
	ProposeMsg struct {
		Round uint64
		Val   Value
	}
	// AckMsg is phase 3 (accept): participant → coordinator.
	AckMsg struct{ Round uint64 }
	// NackMsg is phase 3 (suspect): participant → coordinator.
	NackMsg struct{ Round uint64 }
	// RoundMsg is the round-agreement announcement (stabilizing only).
	RoundMsg struct{ Round uint64 }
	// DecideMsg carries a decision; stabilizing processes gossip it
	// forever.
	DecideMsg struct {
		Round uint64
		Val   Value
	}
)

// Config selects which stabilizing mechanisms are active; the ablation
// experiments toggle them individually.
type Config struct {
	// Resend re-sends current-phase messages every step (mechanism 1).
	Resend bool
	// AdoptRounds jumps to higher round numbers seen in any message and
	// periodically announces the local round (mechanism 2).
	AdoptRounds bool
	// Sanitize clamps locally-checkable invariants every step
	// (mechanism 3).
	Sanitize bool
	// GossipDecision re-broadcasts decisions forever and adopts the
	// lexicographic maximum; without it decisions are write-once and
	// broadcast once.
	GossipDecision bool
}

// Stabilizing enables every mechanism — the paper's protocol.
func Stabilizing() Config {
	return Config{Resend: true, AdoptRounds: true, Sanitize: true, GossipDecision: true}
}

// Baseline disables every mechanism — plain [CT91].
func Baseline() Config { return Config{} }

// MaxCorruptRound bounds corrupted round numbers (feasibility bound only;
// the counters are unbounded in the model).
const MaxCorruptRound = 1 << 40

// Proc is one consensus process: a round Machine, the Figure 4 ◊W→◊S
// transform it consults for suspicions (exactly as the paper composes
// its two asynchronous contributions), and the decision register.
type Proc struct {
	m   Machine
	det *detector.StrongCore

	decided       bool
	decision      Value
	decisionRound uint64
}

var (
	_ async.Proc             = (*Proc)(nil)
	_ detector.SuspectSource = (*Proc)(nil)
)

// New builds a consensus process with the given input, configuration and
// underlying ◊W detector.
func New(id proc.ID, n int, input Value, cfg Config, weak detector.WeakDetector) *Proc {
	return &Proc{
		m:   NewMachine(id, n, input, cfg),
		det: detector.NewStrongCore(id, n, weak),
	}
}

// Procs builds n processes with the given inputs.
func Procs(n int, inputs []Value, cfg Config, weak detector.WeakDetector) ([]*Proc, []async.Proc) {
	cs := make([]*Proc, n)
	ps := make([]async.Proc, n)
	for i := range cs {
		cs[i] = New(proc.ID(i), n, inputs[i], cfg, weak)
		ps[i] = cs[i]
	}
	return cs, ps
}

// ID implements async.Proc.
func (p *Proc) ID() proc.ID { return p.m.self }

// Round returns the current round number.
func (p *Proc) Round() uint64 { return p.m.round }

// Decision returns the currently held decision, its round, and whether one
// is held.
func (p *Proc) Decision() (Value, uint64, bool) {
	return p.decision, p.decisionRound, p.decided
}

// Suspects implements detector.SuspectSource via the embedded transform.
func (p *Proc) Suspects() proc.Set { return p.det.Suspects() }

// OnTick implements async.Proc: one guarded-command sweep. A decided
// process only re-broadcasts its decision (once without GossipDecision);
// its round machine rests.
func (p *Proc) OnTick(ctx async.Context) {
	p.det.OnTick(ctx)
	if p.decided {
		if p.m.cfg.GossipDecision || !p.m.sentDecide {
			p.m.sentDecide = true
			ctx.Broadcast(DecideMsg{Round: p.decisionRound, Val: p.decision})
		}
		return
	}
	out, decided := p.m.Tick(p.det)
	for _, s := range out {
		if s.To == proc.None {
			ctx.Broadcast(s.Msg)
		} else {
			ctx.Send(s.To, s.Msg)
		}
	}
	if decided {
		p.adoptDecision(p.m.Decision())
		p.m.sentDecide = true
		ctx.Broadcast(DecideMsg{Round: p.decisionRound, Val: p.decision})
	}
}

// OnMessage implements async.Proc.
func (p *Proc) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if p.det.OnMessage(ctx, from, payload) {
		return
	}
	if d, ok := payload.(DecideMsg); ok {
		p.adoptDecision(d)
	} else if !p.decided {
		p.m.OnMessage(from, payload)
	}
}

// adoptDecision applies the write-many decision register rule: take the
// lexicographically largest (round, value). The baseline keeps the
// classical write-once register instead.
func (p *Proc) adoptDecision(m DecideMsg) {
	if !p.decided || p.m.cfg.GossipDecision && (m.Round > p.decisionRound ||
		m.Round == p.decisionRound && m.Val > p.decision) {
		p.decided, p.decision, p.decisionRound = true, m.Val, m.Round
	}
}

// CorruptSentFlags injects the targeted systemic failure of ablation E8:
// the process falsely remembers having sent its current-phase messages.
func (p *Proc) CorruptSentFlags() {
	p.m.sentEstimate = true
	p.m.sentPropose = true
}

// Corrupt implements failure.Corruptible: a systemic failure rewrites
// every variable, the embedded detector's and the round machine's first.
func (p *Proc) Corrupt(rng *rand.Rand) {
	p.det.Corrupt(rng)
	p.m.Corrupt(rng)
	if p.decided = rng.Intn(3) == 0; p.decided {
		p.decision = Value(rng.Int63n(1 << 20))
		p.decisionRound = uint64(rng.Int63n(MaxCorruptRound))
	}
}

// String aids debugging.
func (p *Proc) String() string {
	return fmt.Sprintf("ct[%v r=%d est=%d ts=%d decided=%v]",
		p.m.self, p.m.round, p.m.estimate, p.m.ts, p.decided)
}
