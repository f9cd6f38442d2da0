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
// The baseline is correct for crash failures with f < n/2 from a GOOD
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
// laggards forward, the baseline to index its buffers.
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

// roundBuf holds buffered traffic for one round.
type roundBuf struct {
	estimates map[proc.ID]EstimateMsg
	acks      proc.Set
	nacks     proc.Set
	propose   *ProposeMsg
}

func newRoundBuf() *roundBuf {
	return &roundBuf{
		estimates: make(map[proc.ID]EstimateMsg),
		acks:      proc.NewSet(),
		nacks:     proc.NewSet(),
	}
}

// Proc is one consensus process. It embeds the Figure 4 ◊W→◊S transform:
// consensus consults the transform's suspect output, exactly as the paper
// composes its two asynchronous contributions.
type Proc struct {
	id    proc.ID
	n     int
	cfg   Config
	input Value
	det   *detector.StrongCore

	round    uint64
	estimate Value
	ts       uint64

	bufs map[uint64]*roundBuf

	// Per-round progress flags.
	proposed     bool
	propVal      Value
	sentEstimate bool
	sentPropose  bool
	ackedRound   bool // baseline: replied to this round's proposal

	decided       bool
	decision      Value
	decisionRound uint64
	sentDecide    bool
}

var (
	_ async.Proc             = (*Proc)(nil)
	_ detector.SuspectSource = (*Proc)(nil)
)

// New builds a consensus process with the given input, configuration and
// underlying ◊W detector.
func New(id proc.ID, n int, input Value, cfg Config, weak detector.WeakDetector) *Proc {
	return &Proc{
		id:       id,
		n:        n,
		cfg:      cfg,
		input:    input,
		det:      detector.NewStrongCore(id, n, weak),
		estimate: input,
		bufs:     make(map[uint64]*roundBuf),
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
func (p *Proc) ID() proc.ID { return p.id }

// Round returns the current round number.
func (p *Proc) Round() uint64 { return p.round }

// Decision returns the currently held decision, its round, and whether one
// is held.
func (p *Proc) Decision() (Value, uint64, bool) {
	return p.decision, p.decisionRound, p.decided
}

// Suspects implements detector.SuspectSource via the embedded transform.
func (p *Proc) Suspects() proc.Set { return p.det.Suspects() }

func (p *Proc) majority() int { return p.n/2 + 1 }

func (p *Proc) coord(r uint64) proc.ID { return proc.ID(r % uint64(p.n)) }

func (p *Proc) buf(r uint64) *roundBuf {
	b, ok := p.bufs[r]
	if !ok {
		b = newRoundBuf()
		p.bufs[r] = b
	}
	return b
}

// OnTick implements async.Proc: one guarded-command sweep.
func (p *Proc) OnTick(ctx async.Context) {
	p.det.OnTick(ctx)
	if p.cfg.Sanitize {
		p.sanitize()
	}

	if p.decided {
		if p.cfg.GossipDecision {
			ctx.Broadcast(DecideMsg{Round: p.decisionRound, Val: p.decision})
		} else if !p.sentDecide {
			p.sentDecide = true
			ctx.Broadcast(DecideMsg{Round: p.decisionRound, Val: p.decision})
		}
		return
	}

	r := p.round
	c := p.coord(r)
	b := p.buf(r)

	// Round announcement (mechanism 2).
	if p.cfg.AdoptRounds {
		ctx.Broadcast(RoundMsg{Round: r})
	}

	// Phase 1: estimate to the coordinator (re-sent under mechanism 1).
	if p.cfg.Resend || !p.sentEstimate {
		p.sentEstimate = true
		ctx.Send(c, EstimateMsg{Round: r, Val: p.estimate, TS: p.ts})
	}

	// Phase 3, suspect branch: nack and move on. This takes priority over
	// a buffered proposal — a stabilizing participant lingers in the round
	// after acking, and a coordinator that crashed after proposing would
	// otherwise strand it forever; ◊S strong completeness guarantees the
	// suspicion that frees it.
	if c != p.id && p.det.Suspects().Has(c) {
		ctx.Send(c, NackMsg{Round: r})
		p.advanceTo(r + 1)
		if p.cfg.AdoptRounds {
			ctx.Broadcast(RoundMsg{Round: p.round})
		}
		return
	}

	// Phase 3, accept branch: a buffered proposal from the coordinator.
	if b.propose != nil && !p.ackedRound {
		p.estimate = b.propose.Val
		p.ts = r
		ctx.Send(c, AckMsg{Round: r})
		if p.cfg.Resend {
			// Stabilizing: keep re-acking the (re-sent) proposal; stay in
			// the round until a decision or a higher round arrives.
		} else {
			// Baseline: reply once and move to the next round.
			p.ackedRound = true
			if c != p.id {
				p.advanceTo(r + 1)
				return
			}
		}
	}

	// Coordinator duties.
	if c == p.id {
		if !p.proposed && len(b.estimates) >= p.majority() {
			p.propVal = p.pickEstimate(b)
			p.proposed = true
		}
		if p.proposed && (p.cfg.Resend || !p.sentPropose) {
			p.sentPropose = true
			ctx.Broadcast(ProposeMsg{Round: r, Val: p.propVal})
		}
		if p.proposed && b.acks.Len() >= p.majority() {
			p.decide(ctx, p.propVal, r)
			return
		}
		if p.proposed && b.nacks.Len() > 0 && b.acks.Len()+b.nacks.Len() >= p.majority() {
			// The round failed; move on.
			p.advanceTo(r + 1)
		}
	}
}

// pickEstimate returns the buffered estimate with the largest timestamp
// (ties broken by lowest sender ID, for determinism).
func (p *Proc) pickEstimate(b *roundBuf) Value {
	// Collecting the keys into a bitset is a commutative fold; iterating
	// the bitset is ascending by construction, so the lowest sender wins
	// timestamp ties without any sorting pass.
	senders := proc.NewSetCap(p.n)
	for q := range b.estimates {
		senders.Add(q)
	}
	best := proc.None
	var bestTS uint64
	senders.ForEach(func(q proc.ID) {
		e := b.estimates[q]
		if best == proc.None || e.TS > bestTS {
			best, bestTS = q, e.TS
		}
	})
	return b.estimates[best].Val
}

// OnMessage implements async.Proc.
func (p *Proc) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if p.det.OnMessage(ctx, from, payload) {
		return
	}
	switch m := payload.(type) {
	case RoundMsg:
		p.maybeJump(m.Round)
	case EstimateMsg:
		p.maybeJump(m.Round)
		if m.Round >= p.round && p.coord(m.Round) == p.id {
			e := m
			if p.cfg.Sanitize && e.TS > e.Round {
				e.TS = e.Round // locally checkable: a timestamp never exceeds its round
			}
			p.buf(m.Round).estimates[from] = e
		}
	case ProposeMsg:
		p.maybeJump(m.Round)
		if m.Round >= p.round && from == p.coord(m.Round) {
			prop := m
			p.buf(m.Round).propose = &prop
		}
	case AckMsg:
		p.maybeJump(m.Round)
		if m.Round >= p.round && p.coord(m.Round) == p.id {
			p.buf(m.Round).acks.Add(from)
		}
	case NackMsg:
		p.maybeJump(m.Round)
		if m.Round >= p.round && p.coord(m.Round) == p.id {
			p.buf(m.Round).nacks.Add(from)
		}
	case DecideMsg:
		p.adoptDecision(m)
	}
}

// maybeJump implements mechanism 2: abandon the current round for a higher
// one.
func (p *Proc) maybeJump(r uint64) {
	if !p.cfg.AdoptRounds || r <= p.round || p.decided {
		return
	}
	p.advanceTo(r)
}

// advanceTo moves to round r, abandoning all prior-round work (the paper:
// "all work of the currently executing phase is abandoned and the process
// begins the first phase of the newly changed round").
func (p *Proc) advanceTo(r uint64) {
	for old := range p.bufs {
		if old < r {
			delete(p.bufs, old)
		}
	}
	p.round = r
	p.proposed = false
	p.sentPropose = false
	p.sentEstimate = false
	p.ackedRound = false
}

func (p *Proc) decide(ctx async.Context, v Value, r uint64) {
	p.adoptDecision(DecideMsg{Round: r, Val: v})
	ctx.Broadcast(DecideMsg{Round: p.decisionRound, Val: p.decision})
	p.sentDecide = true
}

// adoptDecision applies the write-many decision register rule: take the
// lexicographically largest (round, value). The baseline keeps the
// classical write-once register instead.
func (p *Proc) adoptDecision(m DecideMsg) {
	if !p.cfg.GossipDecision {
		if !p.decided {
			p.decided = true
			p.decision = m.Val
			p.decisionRound = m.Round
		}
		return
	}
	if !p.decided || m.Round > p.decisionRound ||
		(m.Round == p.decisionRound && m.Val > p.decision) {
		p.decided = true
		p.decision = m.Val
		p.decisionRound = m.Round
	}
}

// sanitize clamps locally-checkable invariants (mechanism 3).
func (p *Proc) sanitize() {
	if p.ts > p.round {
		p.ts = p.round
	}
	if p.bufs == nil {
		p.bufs = make(map[uint64]*roundBuf)
	}
	for r, b := range p.bufs {
		if r < p.round || b == nil {
			delete(p.bufs, r)
			continue
		}
		for q, e := range b.estimates {
			if int(q) < 0 || int(q) >= p.n || e.Round != r {
				delete(b.estimates, q)
			}
		}
	}
}

// CorruptSentFlags injects the targeted systemic failure of ablation E8:
// the process falsely remembers having sent its current-phase messages.
func (p *Proc) CorruptSentFlags() {
	p.sentEstimate = true
	p.sentPropose = true
}

// Corrupt implements failure.Corruptible: a systemic failure rewrites
// every variable, including the embedded detector's.
func (p *Proc) Corrupt(rng *rand.Rand) {
	p.det.Corrupt(rng)
	p.round = uint64(rng.Int63n(MaxCorruptRound))
	p.estimate = Value(rng.Int63n(1<<20) - (1 << 19))
	p.ts = uint64(rng.Int63n(MaxCorruptRound))
	p.proposed = rng.Intn(2) == 0
	p.propVal = Value(rng.Int63n(1 << 20))
	p.sentEstimate = rng.Intn(2) == 0
	p.sentPropose = rng.Intn(2) == 0
	p.sentDecide = rng.Intn(2) == 0
	p.ackedRound = rng.Intn(2) == 0

	p.bufs = make(map[uint64]*roundBuf)
	b := newRoundBuf()
	for q := 0; q < p.n; q++ {
		if rng.Intn(2) == 0 {
			b.estimates[proc.ID(q)] = EstimateMsg{
				Round: uint64(rng.Int63n(MaxCorruptRound)),
				Val:   Value(rng.Int63n(1 << 20)),
				TS:    uint64(rng.Int63n(MaxCorruptRound)),
			}
		}
		if rng.Intn(3) == 0 {
			b.acks.Add(proc.ID(q))
		}
		if rng.Intn(3) == 0 {
			b.nacks.Add(proc.ID(q))
		}
	}
	if rng.Intn(2) == 0 {
		b.propose = &ProposeMsg{
			Round: uint64(rng.Int63n(MaxCorruptRound)),
			Val:   Value(rng.Int63n(1 << 20)),
		}
	}
	p.bufs[p.round] = b

	if rng.Intn(3) == 0 {
		p.decided = true
		p.decision = Value(rng.Int63n(1 << 20))
		p.decisionRound = uint64(rng.Int63n(MaxCorruptRound))
	} else {
		p.decided = false
	}
}

// String aids debugging.
func (p *Proc) String() string {
	return fmt.Sprintf("ct[%v r=%d est=%d ts=%d decided=%v]",
		p.id, p.round, p.estimate, p.ts, p.decided)
}
