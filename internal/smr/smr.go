// Package smr composes the paper's asynchronous machinery into repeated
// asynchronous consensus — a self-stabilizing replicated log. The paper's
// synchronous sections take Repeated Consensus as the canonical
// non-terminating problem ("a nonterminating protocol for Repeated
// Consensus constructed by iterating a terminating protocol for a single
// Consensus", §2); this package is the §3 analogue: slot s of the log is
// one instance of the stabilizing ◊S-consensus, and the machinery that
// carries a process from slot to slot is itself built from the paper's
// self-stabilization toolkit:
//
//   - The log is a per-slot write-many decision lattice, gossiped
//     continuously (the §3 decision-register rule, one register per slot).
//     All corrupted log entries are just decisions — they merge like any
//     other, so agreement and progress survive arbitrary corruption, with
//     validity sacrificed for slots minted by the corruption (exactly the
//     trade §3 makes for single-shot decisions).
//
//   - The slot cursor is DERIVED state: a replica works on the first slot
//     missing from the top GossipWindow of its log, or on the slot after
//     the largest it holds if none is missing. A corrupted cursor cannot
//     strand a replica because the cursor is recomputed from the lattice
//     on every step, and a slot adopted above a hole never moves the
//     cursor past the hole.
//
//   - Slot instances are the ctcons state machine (re-send, round
//     adoption, sanitization) with every message wrapped in its slot
//     number; instance state for any slot other than the current one is
//     discarded, which is the per-slot version of "abandon all work of
//     the current phase".
//
// The retained log IS the gossip window: every replica keeps the
// GossipWindow slots under its cursor (and whatever it holds above it)
// in a fixed ring, re-announces the top of its log, and forgets
// everything older. Everything retained is therefore continuously
// reconciled by the lattice gossip — a corrupted entry that disagrees
// with a peer's is overwritten by the join within one round-trip, and no
// stale conflict can hide below the window. Applications that need the
// full log add snapshotting/state transfer on top (out of scope); the
// correctness predicate is suffix-shaped, like everything else in the paper:
// eventually, every retained slot is identical at all correct replicas
// that hold it, and the decided frontier keeps advancing.
//
//ftss:det replica transitions must replay identically from a seed
package smr

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// Value is the command domain of the log.
type Value = ctcons.Value

// CommandSource supplies replica p's proposal for slot s. Returning Idle
// leaves the slot dormant at p: no instance runs for it there until a
// peer's SlotMsg for it arrives, and the source is asked again on every
// step. A source that never returns Idle gets an instance for every slot.
type CommandSource func(p proc.ID, slot uint64) Value

// Idle is the CommandSource answer "nothing to propose here". It is
// never an estimate, so it never enters consensus or the log.
const Idle = Value(-2)

// GossipWindow is how many recent decided slots each replica re-announces
// per tick.
const GossipWindow = 8

// MaxCorruptSlot bounds corrupted slot numbers (feasibility bound, as for
// every counter in this module).
const MaxCorruptSlot = 1 << 40

// SlotMsg wraps a single-slot consensus message.
type SlotMsg struct {
	Slot  uint64
	Inner any
}

// SlotDecision is a gossiped log entry.
type SlotDecision struct {
	Slot  uint64
	Round uint64
	Val   Value
}

// LogGossip carries a batch of recent decisions.
type LogGossip struct {
	Entries []SlotDecision
}

// entry is a log record: the decision plus the round that minted it (for
// the per-slot lattice).
type entry struct {
	round uint64
	val   Value
}

// ringSize is how many consecutive slots the log spans: the gossip window
// under the cursor and as much again above it, one bit of ring.held each.
const ringSize = 2 * GossipWindow

// ring is the log: it spans slots [base, base+ringSize), holds slot
// base+i iff bit i of held is set, and keeps slot s's entry in
// ents[s%ringSize]. Nothing else is stored: the cursor and the frontier
// are functions of these three fields, and when nothing is held any base
// is as good as any other, so no value of base can strand a replica.
type ring struct {
	base uint64
	held uint16
	ents [ringSize]entry
}

// get returns the entry held for slot; slots outside the span miss.
func (g *ring) get(slot uint64) (entry, bool) {
	if slot < g.base || slot-g.base >= ringSize || g.held&(1<<(slot-g.base)) == 0 {
		return entry{}, false
	}
	return g.ents[slot%ringSize], true
}

// put stores e for slot. An empty ring re-anchors so that slot is the
// top of the span; otherwise a slot below the span is dropped and one
// above it slides the span up until slot is its top.
func (g *ring) put(slot uint64, e entry) {
	switch {
	case g.held == 0:
		g.base = slot - min(slot, ringSize-1)
	case slot < g.base:
		return
	case slot-g.base >= ringSize:
		g.rebase(slot - (ringSize - 1))
	}
	g.held |= 1 << (slot - g.base)
	g.ents[slot%ringSize] = e
}

// rebase moves the span to start at base, forgetting what falls outside.
func (g *ring) rebase(base uint64) {
	if base >= g.base {
		g.held >>= base - g.base
	} else {
		g.held <<= g.base - base
	}
	g.base = base
}

// end returns one past the largest slot held (base when nothing is).
func (g *ring) end() uint64 { return g.base + uint64(bits.Len16(g.held)) }

// cursor returns the first slot missing from the top GossipWindow of the
// log, (max−GossipWindow, max], or max+1 if none is missing; 0 when the
// ring is empty.
func (g *ring) cursor() uint64 {
	if g.held == 0 {
		return 0
	}
	end := g.end()
	lo := end - min(end, GossipWindow)
	if lo < g.base {
		return lo // below the span: not held
	}
	return lo + uint64(bits.TrailingZeros16(^(g.held >> (lo - g.base))))
}

// window returns the entries held in the GossipWindow slots below end,
// in slot order.
func (g *ring) window(end uint64) []SlotDecision {
	var out []SlotDecision
	for s := end - min(end, GossipWindow); s < end; s++ {
		if e, ok := g.get(s); ok {
			out = append(out, SlotDecision{Slot: s, Round: e.round, Val: e.val})
		}
	}
	return out
}

// instance is the per-slot consensus state (a slim ctcons round machine;
// the detector lives in the replica and is shared across slots).
type instance struct {
	round      uint64
	estimate   Value
	ts         uint64
	proposed   bool
	propVal    Value
	estimates  map[proc.ID]ctcons.EstimateMsg
	acks       proc.Set
	nacks      proc.Set
	gotPropose *ctcons.ProposeMsg

	// A pipelined (lookahead) instance that reaches a decision holds it
	// here until the commit cursor arrives at its slot: pipelined
	// decisions enter the log in slot order (see SetPipeline).
	decided  bool
	decRound uint64
	decVal   Value
}

func newInstance(est Value) *instance {
	return &instance{
		estimate:  est,
		estimates: make(map[proc.ID]ctcons.EstimateMsg),
		acks:      proc.NewSet(),
		nacks:     proc.NewSet(),
	}
}

// lookahead is one pipelined instance and the slot it runs for.
type lookahead struct {
	slot uint64
	in   *instance
}

// Replica is one member of the replicated log.
type Replica struct {
	id   proc.ID
	n    int
	cmds CommandSource
	det  *detector.StrongCore
	log  ring
	cur  uint64      // slot the active instance is for (derived; see syncCursor)
	inst *instance   // nil while slot cur is dormant
	pipe int         // pipeline depth; ≤ 1 means no lookahead
	aux  []lookahead // instances for slots cur+1 .. cur+pipe-1, in slot order
}

var _ async.Proc = (*Replica)(nil)

// NewReplicas builds n replicas over a shared ◊W detector.
func NewReplicas(n int, cmds CommandSource, weak detector.WeakDetector) ([]*Replica, []async.Proc) {
	rs := make([]*Replica, n)
	aps := make([]async.Proc, n)
	for i := 0; i < n; i++ {
		rs[i] = &Replica{
			id:   proc.ID(i),
			n:    n,
			cmds: cmds,
			det:  detector.NewStrongCore(proc.ID(i), n, weak),
		}
		rs[i].syncCursor()
		aps[i] = rs[i]
	}
	return rs, aps
}

// ID implements async.Proc.
func (r *Replica) ID() proc.ID { return r.id }

// CurrentSlot returns the slot the replica is working on.
func (r *Replica) CurrentSlot() uint64 { return r.cur }

// Get returns the decided command for a slot.
func (r *Replica) Get(slot uint64) (Value, bool) {
	e, ok := r.log.get(slot)
	return e.val, ok
}

// Frontier returns the slot below the cursor the log derives (see
// syncCursor), and whether there is one. Right after the cursor jumps to
// a far-future window the frontier can be a slot nobody holds.
func (r *Replica) Frontier() (uint64, bool) {
	c := r.log.cursor()
	return c - 1, c > 0
}

// Window returns the decided entries in (f−GossipWindow, f], f the
// frontier, in slot order: the retained log every replica reconciles.
func (r *Replica) Window() []SlotDecision { return r.log.window(r.log.cursor()) }

// LogLen returns the number of decided slots held.
func (r *Replica) LogLen() int { return bits.OnesCount16(r.log.held) }

// Suspects implements detector.SuspectSource.
func (r *Replica) Suspects() proc.Set { return r.det.Suspects() }

func (r *Replica) majority() int { return r.n/2 + 1 }

func (r *Replica) coord(round uint64) proc.ID { return proc.ID(round % uint64(r.n)) }

// SetPipeline sets how many consecutive slots the replica drives
// concurrently: while slot cur finalizes, the instances for the next d-1
// slots already run their round agreement. A lookahead decision is held
// in its instance and committed strictly in slot order: pipelining never
// puts a decision into the log above a slot the same replica has yet to
// commit (TestPipelineHoldsDecisionOrder). Depth 1 (the default)
// behaves — message for message — exactly like the unpipelined replica.
func (r *Replica) SetPipeline(d int) {
	if d < 1 {
		d = 1
	}
	r.pipe = d
	r.syncCursor()
}

// syncCursor recomputes the working slot from the log lattice,
// (re)creates or promotes instances when the slot changed, and commits
// any held lookahead decisions whose turn has come, then forgets the log
// below the gossip window under the cursor. The cursor is never trusted
// as stored state — this is what makes its corruption harmless. Neither
// is dormancy: a slot without an instance asks the command source again
// on every call, so the step after a proposal appears opens its slot.
func (r *Replica) syncCursor() {
	for {
		want := r.log.cursor()
		if r.inst == nil || r.cur != want {
			r.cur, r.inst = want, nil
			if i := r.auxIndex(want); i >= 0 {
				// Promote the lookahead instance: its in-flight round
				// work (and possibly its held decision) carries over.
				r.inst = r.aux[i].in
				r.aux = slices.Delete(r.aux, i, i+1)
			} else if v := r.cmds(r.id, want); v != Idle {
				r.inst = newInstance(v)
			}
		}
		if r.inst == nil || !r.inst.decided {
			break
		}
		// Its turn in the commit order: the held decision enters the log
		// and the cursor re-derives against the new frontier.
		r.adopt(SlotDecision{Slot: r.cur, Round: r.inst.decRound, Val: r.inst.decVal})
		r.inst = nil
	}
	// Reconcile the lookahead window [cur+1, cur+pipe-1]: drop what fell
	// outside it or was decided by adoption above a gap, then open the
	// undecided slots it is missing. Both passes keep aux in slot order.
	d := uint64(max(r.pipe, 1))
	r.aux = slices.DeleteFunc(r.aux, func(a lookahead) bool {
		_, done := r.log.get(a.slot)
		return done || a.slot <= r.cur || a.slot >= r.cur+d
	})
	i := 0 // aux[i] is the first lookahead at or above slot s
	for s := r.cur + 1; s < r.cur+d; s++ {
		if i < len(r.aux) && r.aux[i].slot == s {
			i++
			continue
		}
		if _, done := r.log.get(s); done {
			continue
		}
		v := r.cmds(r.id, s)
		if v == Idle {
			continue
		}
		r.aux = slices.Insert(r.aux, i, lookahead{slot: s, in: newInstance(v)})
		i++
	}
	// Retained ⟺ reconciled: the span starts GossipWindow under the cursor.
	r.log.rebase(r.cur - min(r.cur, GossipWindow))
}

// auxIndex returns the position of slot's lookahead instance, or -1.
func (r *Replica) auxIndex(slot uint64) int {
	for i, a := range r.aux {
		if a.slot == slot {
			return i
		}
	}
	return -1
}

// adopt merges a decision into the log lattice (higher round wins, then
// higher value).
func (r *Replica) adopt(d SlotDecision) {
	e, ok := r.log.get(d.Slot)
	if !ok || d.Round > e.round || (d.Round == e.round && d.Val > e.val) {
		r.log.put(d.Slot, entry{round: d.Round, val: d.Val})
	}
}

// OnTick implements async.Proc.
func (r *Replica) OnTick(ctx async.Context) {
	r.det.OnTick(ctx)
	r.syncCursor()

	// Gossip the top of the log: above the cursor too, so a group that a
	// far-future mint reached converges past it.
	if r.log.held != 0 {
		ctx.Broadcast(LogGossip{Entries: r.log.window(r.log.end())})
	}

	// Drive the pipeline: the commit slot first, then the lookahead slots
	// in increasing order. A commit-slot decision promotes a lookahead
	// instance out of aux before the loop reads it (that instance is then
	// driven again on the next tick, not twice in this one). Inside the
	// loop aux is stable: a lookahead decision is only held, so the
	// syncCursor it triggers finds the frontier, and with it the window,
	// where they were. A dormant commit slot sends nothing.
	if r.inst != nil {
		r.driveInstance(ctx, r.cur, r.inst)
	}
	for _, a := range r.aux {
		r.driveInstance(ctx, a.slot, a.in)
	}
}

// driveInstance is one ctcons tick for one slot's instance (slot-wrapped
// messages). For the commit slot a majority of acks adopts the decision
// at once (via syncCursor); for a lookahead slot it is held in the
// instance until the commit order reaches it.
func (r *Replica) driveInstance(ctx async.Context, slot uint64, in *instance) {
	if in.decided {
		// Held lookahead decision: finished locally, waiting its turn.
		return
	}
	// Sanitize (mechanism 3).
	if in.ts > in.round {
		in.ts = in.round
	}
	c := r.coord(in.round)

	ctx.Broadcast(SlotMsg{Slot: slot, Inner: ctcons.RoundMsg{Round: in.round}})
	ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.EstimateMsg{Round: in.round, Val: in.estimate, TS: in.ts}})

	if c != r.id && r.det.Suspects().Has(c) {
		ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.NackMsg{Round: in.round}})
		in.advance(in.round + 1)
		return
	}
	if in.gotPropose != nil && in.gotPropose.Round == in.round {
		in.estimate = in.gotPropose.Val
		in.ts = in.round
		ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.AckMsg{Round: in.round}})
	}
	if c == r.id {
		if !in.proposed && len(in.estimates) >= r.majority() {
			in.propVal = pick(in.estimates)
			in.proposed = true
		}
		if in.proposed {
			ctx.Broadcast(SlotMsg{Slot: slot, Inner: ctcons.ProposeMsg{Round: in.round, Val: in.propVal}})
		}
		if in.proposed && in.acks.Len() >= r.majority() {
			in.decided, in.decRound, in.decVal = true, in.round, in.propVal
			r.syncCursor() // commits in slot order; a lookahead slot waits its turn
			return
		}
		if in.proposed && in.nacks.Len() > 0 && in.acks.Len()+in.nacks.Len() >= r.majority() {
			in.advance(in.round + 1)
		}
	}
}

// advance abandons the instance's current round.
func (in *instance) advance(round uint64) {
	in.round = round
	in.proposed = false
	in.estimates = make(map[proc.ID]ctcons.EstimateMsg)
	in.acks = proc.NewSet()
	in.nacks = proc.NewSet()
	in.gotPropose = nil
}

// OnMessage implements async.Proc.
func (r *Replica) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if r.det.OnMessage(ctx, from, payload) {
		return
	}
	switch m := payload.(type) {
	case LogGossip:
		for _, d := range m.Entries {
			r.adopt(d)
		}
		r.syncCursor()
	case SlotMsg:
		if m.Slot == r.cur {
			if r.inst == nil {
				// Woken: a peer is deciding our dormant commit slot, and
				// it needs our participation, not a proposal.
				r.inst = newInstance(NoOp)
			}
			r.onSlotMessage(r.inst, from, m.Inner)
			return
		}
		if i := r.auxIndex(m.Slot); i >= 0 {
			r.onSlotMessage(r.aux[i].in, from, m.Inner)
			return
		}
		// A slot we've already decided: answer with its decision so
		// laggards catch up even outside the gossip window.
		if e, ok := r.log.get(m.Slot); ok {
			ctx.Send(from, LogGossip{Entries: []SlotDecision{
				{Slot: m.Slot, Round: e.round, Val: e.val},
			}})
			return
		}
		// A dormant lookahead slot wakes the same way, in slot order.
		if m.Slot > r.cur && m.Slot-r.cur < uint64(max(r.pipe, 1)) {
			in := newInstance(NoOp)
			i := slices.IndexFunc(r.aux, func(a lookahead) bool { return a.slot > m.Slot })
			if i < 0 {
				i = len(r.aux)
			}
			r.aux = slices.Insert(r.aux, i, lookahead{slot: m.Slot, in: in})
			r.onSlotMessage(in, from, m.Inner)
		}
	}
}

func (r *Replica) onSlotMessage(in *instance, from proc.ID, inner any) {
	if in.decided {
		// A held lookahead decision is final; late round traffic for the
		// slot is irrelevant to it.
		return
	}
	switch m := inner.(type) {
	case ctcons.RoundMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
	case ctcons.EstimateMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && r.coord(in.round) == r.id {
			e := m
			if e.TS > e.Round {
				e.TS = e.Round
			}
			in.estimates[from] = e
		}
	case ctcons.ProposeMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && from == r.coord(in.round) {
			prop := m
			in.gotPropose = &prop
		}
	case ctcons.AckMsg:
		if m.Round == in.round && r.coord(in.round) == r.id {
			in.acks.Add(from)
		}
	case ctcons.NackMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && r.coord(in.round) == r.id {
			in.nacks.Add(from)
		}
	}
}

// Corrupt implements failure.Corruptible: the detector, the instance, the
// log (a few poisoned entries), and the cursor (which syncCursor will
// immediately override — kept here to document that it is derived).
func (r *Replica) Corrupt(rng *rand.Rand) {
	r.det.Corrupt(rng)
	r.cur = uint64(rng.Int63n(MaxCorruptSlot))
	r.inst = newInstance(Value(rng.Int63n(1 << 20)))
	r.inst.round = uint64(rng.Int63n(MaxCorruptSlot))
	r.inst.ts = uint64(rng.Int63n(MaxCorruptSlot))
	r.inst.proposed = rng.Intn(2) == 0
	r.inst.propVal = Value(rng.Int63n(1 << 20))
	// The lookahead window is derived state too: drop it and let
	// syncCursor rebuild it (a corrupted lookahead instance is
	// indistinguishable from a fresh one to the protocol, and clearing
	// keeps the rng stream identical to the unpipelined replica).
	r.aux = nil
	// Poison a few log entries, including possibly a far-future slot.
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		slot := uint64(rng.Int63n(12))
		if rng.Intn(4) == 0 {
			slot = uint64(rng.Int63n(1 << 20)) // far-future mint
		}
		r.log.put(slot, entry{
			round: uint64(rng.Int63n(1 << 20)),
			val:   Value(rng.Int63n(1 << 20)),
		})
	}
}

func pick(ests map[proc.ID]ctcons.EstimateMsg) Value {
	best := proc.None
	var bestTS uint64
	ids := make([]proc.ID, 0, len(ests))
	for q := range ests {
		ids = append(ids, q)
	}
	slices.Sort(ids)
	for _, q := range ids {
		e := ests[q]
		if best == proc.None || e.TS > bestTS ||
			(e.TS == bestTS && ests[best].Val == NoOp && e.Val != NoOp) {
			// Highest timestamp wins (a locked estimate must prevail for
			// safety); on ties, a real proposal beats the batching
			// frontend's NoOp sentinel so open batches are not starved by
			// lower-ID idle replicas. Any tie-break is safe here — every
			// estimate in the map came from the majority.
			best, bestTS = q, e.TS
		}
	}
	return ests[best].Val
}

// String aids debugging.
func (r *Replica) String() string {
	if r.inst == nil {
		return fmt.Sprintf("replica[%v slot=%d dormant log=%d]", r.id, r.cur, r.LogLen())
	}
	return fmt.Sprintf("replica[%v slot=%d round=%d log=%d]", r.id, r.cur, r.inst.round, r.LogLen())
}
