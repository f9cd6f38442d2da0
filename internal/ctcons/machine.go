package ctcons

import (
	"math/rand"

	"ftss/internal/detector"
	"ftss/internal/proc"
)

// NoOp is the reserved estimate that decides an instance without
// committing anything (smr's batching frontend proposes it). On a
// timestamp tie a coordinator proposes any other value over it. Inputs
// and batch IDs are non-negative, so NoOp never collides with one.
const NoOp = Value(-1)

// Send is one message a Tick emits: to To, or to every process when To
// is proc.None.
type Send struct {
	To  proc.ID
	Msg any
}

// Machine is one process's Chandra–Toueg round state for one consensus
// instance, with the mechanisms its Config enables. Proc is a Machine
// plus the detector and the decision register; an smr slot is a Machine
// plus the decision it holds. A Machine sends nothing itself: Tick
// returns what to send, so a caller can wrap each message (smr puts its
// slot number around it).
type Machine struct {
	cfg  Config
	self proc.ID
	n    int

	round    uint64
	estimate Value
	ts       uint64

	// The coordinator's proposal for this round, once picked.
	proposed bool
	propVal  Value

	// Per-phase sent flags. Under Resend only ackedRound is ever read,
	// and sentDecide only by Proc's write-once register.
	sentEstimate, sentPropose, sentDecide, ackedRound bool

	cur   tally             // this round's traffic
	later map[uint64]*tally // future rounds' traffic, kept only while AdoptRounds is off
	out   [4]Send           // Tick's result: at most four sends per sweep

	// The last EstimateMsg and ProposeMsg Tick boxed. Tick sends one again
	// only after comparing it with the message it would build, so neither
	// is state: Corrupt leaves them alone, and no value of theirs can
	// change what is sent.
	estBox, propBox any
}

// tally is the traffic one round has delivered: the estimates, dense by
// sender and counted where senders has the sender, the acks and nacks a
// coordinator counts, and the coordinator's proposal. Its storage is
// allocated on the first estimate, ack or nack and then reused.
type tally struct {
	ests                 []EstimateMsg
	senders, acks, nacks proc.Set
	prop                 Value
	hasProp              bool
}

func (t *tally) grow(n int) {
	if t.ests == nil {
		t.ests = make([]EstimateMsg, n)
		t.senders, t.acks, t.nacks = proc.NewSetCap(n), proc.NewSetCap(n), proc.NewSetCap(n)
	}
}

func (t *tally) clear() {
	if t.ests != nil {
		t.senders.Clear()
		t.acks.Clear()
		t.nacks.Clear()
	}
	t.hasProp = false
}

// NewMachine returns process self's machine, in round 0 with the given
// estimate, for an n-process instance.
func NewMachine(self proc.ID, n int, estimate Value, cfg Config) Machine {
	return Machine{cfg: cfg, self: self, n: n, estimate: estimate}
}

// Round returns the current round number.
func (m *Machine) Round() uint64 { return m.round }

// Decision returns what a Tick that reported a decision decided: this
// round's proposal.
func (m *Machine) Decision() DecideMsg { return DecideMsg{Round: m.round, Val: m.propVal} }

func (m *Machine) majority() int { return m.n/2 + 1 }

func (m *Machine) coord(r uint64) proc.ID { return proc.ID(r % uint64(m.n)) }

// Tick is one guarded-command sweep of an undecided machine. It returns
// the messages to send, in order, and whether this coordinator has just
// decided (see Decision). The slice is valid until the next Tick.
func (m *Machine) Tick(det *detector.StrongCore) ([]Send, bool) {
	if m.cfg.Sanitize {
		m.sanitize()
	}
	out := m.out[:0]
	r, c := m.round, m.coord(m.round)

	// Round announcement (mechanism 2).
	if m.cfg.AdoptRounds {
		out = append(out, Send{proc.None, RoundMsg{Round: r}})
	}

	// Phase 1: estimate to the coordinator (re-sent under mechanism 1).
	if m.cfg.Resend || !m.sentEstimate {
		m.sentEstimate = true
		est := EstimateMsg{Round: r, Val: m.estimate, TS: m.ts}
		if old, ok := m.estBox.(EstimateMsg); !ok || old != est {
			m.estBox = est
		}
		out = append(out, Send{c, m.estBox})
	}

	// Phase 3, suspect branch: nack, move on, and announce the new round.
	// This takes priority over a received proposal — a stabilizing
	// participant lingers in the round after acking, and a coordinator
	// that crashed after proposing would otherwise strand it forever; ◊S
	// strong completeness guarantees the suspicion that frees it.
	if c != m.self && det.Suspected(c) {
		out = append(out, Send{c, NackMsg{Round: r}})
		m.advanceTo(r + 1)
		if m.cfg.AdoptRounds {
			out = append(out, Send{proc.None, RoundMsg{Round: m.round}})
		}
		return out, false
	}

	// Phase 3, accept branch: the coordinator's proposal. A stabilizing
	// participant keeps re-acking it and stays in the round until a
	// decision or a higher round arrives; the baseline replies once and
	// moves to the next round.
	if m.cur.hasProp && !m.ackedRound {
		m.estimate, m.ts = m.cur.prop, r
		out = append(out, Send{c, AckMsg{Round: r}})
		if !m.cfg.Resend {
			m.ackedRound = true
			if c != m.self {
				m.advanceTo(r + 1)
				return out, false
			}
		}
	}

	// Coordinator duties.
	if c != m.self {
		return out, false
	}
	if !m.proposed && m.cur.senders.Len() >= m.majority() {
		m.propVal, m.proposed = m.pick(), true
	}
	if !m.proposed {
		return out, false
	}
	if m.cfg.Resend || !m.sentPropose {
		m.sentPropose = true
		prop := ProposeMsg{Round: r, Val: m.propVal}
		if old, ok := m.propBox.(ProposeMsg); !ok || old != prop {
			m.propBox = prop
		}
		out = append(out, Send{proc.None, m.propBox})
	}
	if m.cur.acks.Len() >= m.majority() {
		return out, true
	}
	if m.cur.nacks.Len() > 0 && m.cur.acks.Len()+m.cur.nacks.Len() >= m.majority() {
		m.advanceTo(r + 1) // the round failed; move on
	}
	return out, false
}

// pick returns the estimate a coordinator proposes: the highest
// timestamp (a locked estimate must prevail, for safety), then any value
// over NoOp (so an open batch is not starved by idle lower-ID replicas),
// then the lowest sender. Any tie-break is safe: every counted estimate
// came from the majority.
func (m *Machine) pick() Value {
	t := &m.cur
	best := proc.None
	for q := proc.ID(0); int(q) < m.n; q++ {
		if !t.senders.Has(q) {
			continue
		}
		if best == proc.None {
			best = q
			continue
		}
		e, b := t.ests[q], t.ests[best]
		if e.TS > b.TS || (e.TS == b.TS && b.Val == NoOp && e.Val != NoOp) {
			best = q
		}
	}
	return t.ests[best].Val
}

// OnMessage takes in one round message; other payloads are ignored.
// Under AdoptRounds a higher round first moves the machine there
// (mechanism 2); without it a future round's traffic waits in that
// round's tally, as [CT91] requires. A lower round is stale. A sender
// outside the group (a forged or corrupted frame header) is ignored.
func (m *Machine) OnMessage(from proc.ID, msg any) {
	if from < 0 || int(from) >= m.n {
		return
	}
	switch x := msg.(type) {
	case RoundMsg:
		m.tallyFor(x.Round, false)
	case EstimateMsg:
		if t := m.tallyFor(x.Round, m.coord(x.Round) == m.self); t != nil {
			if m.cfg.Sanitize && x.TS > x.Round {
				x.TS = x.Round // locally checkable: a timestamp never exceeds its round
			}
			t.grow(m.n)
			t.ests[from] = x
			t.senders.Add(from)
		}
	case ProposeMsg:
		if t := m.tallyFor(x.Round, from == m.coord(x.Round)); t != nil {
			t.prop, t.hasProp = x.Val, true
		}
	case AckMsg:
		if t := m.tallyFor(x.Round, m.coord(x.Round) == m.self); t != nil {
			t.grow(m.n)
			t.acks.Add(from)
		}
	case NackMsg:
		if t := m.tallyFor(x.Round, m.coord(x.Round) == m.self); t != nil {
			t.grow(m.n)
			t.nacks.Add(from)
		}
	}
}

// tallyFor applies round agreement to a message of round r and returns
// the tally it counts in, or nil when it is stale or not for this
// process's role in r (keep false).
func (m *Machine) tallyFor(r uint64, keep bool) *tally {
	if m.cfg.AdoptRounds && r > m.round {
		m.advanceTo(r)
	}
	if !keep || r < m.round {
		return nil
	}
	if r == m.round {
		return &m.cur
	}
	if m.later == nil {
		m.later = make(map[uint64]*tally)
	}
	if m.later[r] == nil {
		m.later[r] = new(tally)
	}
	return m.later[r]
}

// advanceTo moves to round r, abandoning all prior-round work (the paper:
// "all work of the currently executing phase is abandoned and the process
// begins the first phase of the newly changed round"). The round's tally
// is cleared in place, or swapped for r's buffered one.
func (m *Machine) advanceTo(r uint64) {
	m.round = r
	m.proposed, m.sentPropose, m.sentEstimate, m.ackedRound = false, false, false, false
	m.cur.clear()
	for old, t := range m.later {
		if old == r {
			m.cur, *t = *t, m.cur
		}
		if old <= r {
			delete(m.later, old)
		}
	}
}

// sanitize clamps locally-checkable invariants (mechanism 3): a timestamp
// never exceeds the round, and an estimate counts only in its own round.
func (m *Machine) sanitize() {
	if m.ts > m.round {
		m.ts = m.round
	}
	t := &m.cur
	for q := proc.ID(0); int(q) < m.n; q++ {
		if t.senders.Has(q) && t.ests[q].Round != m.round {
			t.senders.Remove(q)
		}
	}
}

// CorruptRound rewrites the round variables: the round, the estimate and
// its timestamp, and the coordinator's proposal.
func (m *Machine) CorruptRound(rng *rand.Rand) {
	m.round = uint64(rng.Int63n(MaxCorruptRound))
	m.estimate = Value(rng.Int63n(1<<20) - (1 << 19))
	m.ts = uint64(rng.Int63n(MaxCorruptRound))
	m.proposed = rng.Intn(2) == 0
	m.propVal = Value(rng.Int63n(1 << 20))
}

// Corrupt rewrites every variable of the machine (a systemic failure):
// the round variables, the sent flags and the round's traffic. Proc's
// draws continue after these, so their order is part of E6's tables.
func (m *Machine) Corrupt(rng *rand.Rand) {
	m.CorruptRound(rng)
	m.sentEstimate = rng.Intn(2) == 0
	m.sentPropose = rng.Intn(2) == 0
	m.sentDecide = rng.Intn(2) == 0
	m.ackedRound = rng.Intn(2) == 0

	m.later = nil
	t := &m.cur
	t.grow(m.n)
	t.clear()
	for q := proc.ID(0); int(q) < m.n; q++ {
		if rng.Intn(2) == 0 {
			t.ests[q] = EstimateMsg{
				Round: uint64(rng.Int63n(MaxCorruptRound)),
				Val:   Value(rng.Int63n(1 << 20)),
				TS:    uint64(rng.Int63n(MaxCorruptRound)),
			}
			t.senders.Add(q)
		}
		if rng.Intn(3) == 0 {
			t.acks.Add(q)
		}
		if rng.Intn(3) == 0 {
			t.nacks.Add(q)
		}
	}
	if t.hasProp = rng.Intn(2) == 0; t.hasProp {
		rng.Int63n(MaxCorruptRound) // the proposal's round: a tally is per round already
		t.prop = Value(rng.Int63n(1 << 20))
	}
}
