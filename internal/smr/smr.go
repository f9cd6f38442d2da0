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
//   - A slot instance is a ctcons.Machine, the round machine every
//     ctcons.Proc runs (re-send, round adoption, sanitization), with each
//     message wrapped in its slot number. Instances run only for the
//     slots of the window [cursor, cursor+pipeline) and are discarded
//     when their slot leaves it, which is the per-slot version of
//     "abandon all work of the current phase". This package adds only the
//     slot wrapping, dormancy and the commit order.
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

// window appends to dst the entries held in the GossipWindow slots below
// end, in slot order.
func (g *ring) window(dst []SlotDecision, end uint64) []SlotDecision {
	for s := end - min(end, GossipWindow); s < end; s++ {
		if e, ok := g.get(s); ok {
			dst = append(dst, SlotDecision{Slot: s, Round: e.round, Val: e.val})
		}
	}
	return dst
}

// instance is one slot's consensus: the ctcons round machine (the
// detector lives in the replica and is shared across slots). A pipelined
// (lookahead) instance that reaches a decision holds it here until the
// commit cursor arrives at its slot: pipelined decisions enter the log in
// slot order (see SetPipeline).
type instance struct {
	ctcons.Machine
	slot    uint64
	decided bool
	dec     ctcons.DecideMsg
	sent    [4]any // the SlotMsgs of the last Tick's sends (a Tick sends at most four)
}

// wrap returns msg in a SlotMsg for the instance's slot, reusing one the
// last Tick boxed when its content is equal: the content is compared, so
// no stored box can make the instance send anything else than a fresh
// SlotMsg would carry.
func (in *instance) wrap(msg any) any {
	for _, box := range in.sent {
		if old, ok := box.(SlotMsg); ok && old.Slot == in.slot && old.Inner == msg {
			return box
		}
	}
	return SlotMsg{Slot: in.slot, Inner: msg}
}

// Replica is one member of the replicated log.
type Replica struct {
	id   proc.ID
	n    int
	cmds CommandSource
	det  *detector.StrongCore
	log  ring
	cur  uint64      // the commit slot (derived; see syncCursor)
	pipe int         // pipeline depth; 1 means no lookahead
	ins  []*instance // open instances in [cur, cur+pipe), in slot order; a slot without one is dormant

	// The last LogGossip boxed by OnTick and by the decided-slot reply.
	// Each is sent again only after an entry-by-entry comparison with
	// the log, so neither is state: Corrupt leaves them alone.
	gossip, reply any
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
			pipe: 1,
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
func (r *Replica) Window() []SlotDecision {
	return r.log.window(make([]SlotDecision, 0, GossipWindow), r.log.cursor())
}

// LogLen returns the number of decided slots held.
func (r *Replica) LogLen() int { return bits.OnesCount16(r.log.held) }

// Suspects implements detector.SuspectSource.
func (r *Replica) Suspects() proc.Set { return r.det.Suspects() }

// SetPipeline sets how many consecutive slots the replica drives
// concurrently: while slot cur finalizes, the instances for the next d-1
// slots already run their round agreement. A lookahead decision is held
// in its instance and committed strictly in slot order: pipelining never
// puts a decision into the log above a slot the same replica has yet to
// commit (TestPipelineHoldsDecisionOrder). Depth 1 (the default)
// behaves — message for message — exactly like the unpipelined replica.
func (r *Replica) SetPipeline(d int) {
	r.pipe = max(d, 1)
	r.syncCursor()
}

// syncCursor recomputes the commit slot from the log lattice, drops the
// instances outside the window [cur, cur+pipe) or whose slot the log
// holds, commits the held decisions whose turn has come, opens the slots
// that have a proposal, and forgets the log below the gossip window. The
// cursor is never trusted as stored state — this is what makes its
// corruption harmless. Neither is dormancy: a slot without an instance
// asks the command source again on every call.
func (r *Replica) syncCursor() {
	for {
		r.cur = r.log.cursor()
		r.ins = slices.DeleteFunc(r.ins, func(in *instance) bool {
			_, done := r.log.get(in.slot)
			return done || in.slot < r.cur || in.slot-r.cur >= uint64(r.pipe)
		})
		in := r.at(r.cur)
		if in == nil || !in.decided {
			break
		}
		// Its turn in the commit order: the held decision enters the log
		// and the cursor re-derives against the new frontier.
		r.adopt(SlotDecision{Slot: r.cur, Round: in.dec.Round, Val: in.dec.Val})
	}
	for s := r.cur; s-r.cur < uint64(r.pipe); s++ {
		if _, done := r.log.get(s); done || r.at(s) != nil {
			continue
		}
		if v := r.cmds(r.id, s); v != Idle {
			r.open(s, v)
		}
	}
	// Retained ⟺ reconciled: the span starts GossipWindow under the cursor.
	r.log.rebase(r.cur - min(r.cur, GossipWindow))
}

// at returns slot's open instance, or nil while it is dormant.
func (r *Replica) at(slot uint64) *instance {
	for _, in := range r.ins {
		if in.slot == slot {
			return in
		}
	}
	return nil
}

// open starts an instance for slot with estimate v, in slot order.
func (r *Replica) open(slot uint64, v Value) *instance {
	in := &instance{Machine: ctcons.NewMachine(r.id, r.n, v, ctcons.Stabilizing()), slot: slot}
	i := slices.IndexFunc(r.ins, func(x *instance) bool { return x.slot > slot })
	if i < 0 {
		i = len(r.ins)
	}
	r.ins = slices.Insert(r.ins, i, in)
	return in
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
		var buf [GossipWindow]SlotDecision
		top := r.log.window(buf[:0], r.log.end())
		if old, ok := r.gossip.(LogGossip); !ok || !slices.Equal(old.Entries, top) {
			r.gossip = LogGossip{Entries: append([]SlotDecision(nil), top...)}
		}
		ctx.Broadcast(r.gossip)
	}

	// Drive the pipeline in slot order, the commit slot first. Its
	// decision moves the cursor before the loop reads the window; the
	// loop skips the new commit slot until the next tick. A lookahead
	// decision is only held, so the window stays put inside the loop.
	if in := r.at(r.cur); in != nil {
		r.driveInstance(ctx, in)
	}
	for _, in := range r.ins {
		if in.slot != r.cur {
			r.driveInstance(ctx, in)
		}
	}
}

// driveInstance is one ctcons tick for one slot's instance, each message
// wrapped in the slot number. For the commit slot a decision is adopted
// at once (via syncCursor); for a lookahead slot it is held in the
// instance until the commit order reaches it.
func (r *Replica) driveInstance(ctx async.Context, in *instance) {
	if in.decided {
		// Held lookahead decision: finished locally, waiting its turn.
		return
	}
	out, decided := in.Tick(r.det)
	var sent [len(in.sent)]any
	for i, s := range out {
		m := in.wrap(s.Msg)
		sent[i] = m
		if s.To == proc.None {
			ctx.Broadcast(m)
		} else {
			ctx.Send(s.To, m)
		}
	}
	in.sent = sent
	if decided {
		in.decided, in.dec = true, in.Decision()
		r.syncCursor() // commits in slot order; a lookahead slot waits its turn
	}
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
		in := r.at(m.Slot)
		if in == nil {
			// A slot we've already decided: answer with its decision so
			// laggards catch up even outside the gossip window.
			if e, ok := r.log.get(m.Slot); ok {
				d := SlotDecision{Slot: m.Slot, Round: e.round, Val: e.val}
				if old, ok := r.reply.(LogGossip); !ok || len(old.Entries) != 1 || old.Entries[0] != d {
					r.reply = LogGossip{Entries: []SlotDecision{d}}
				}
				ctx.Send(from, r.reply)
				return
			}
			// Woken: a peer is deciding a slot of our window that is
			// dormant here, and it needs our participation, not a
			// proposal.
			if m.Slot < r.cur || m.Slot-r.cur >= uint64(r.pipe) {
				return
			}
			in = r.open(m.Slot, NoOp)
		}
		// A held lookahead decision is final; late round traffic for the
		// slot is irrelevant to it.
		if !in.decided {
			in.OnMessage(from, m.Inner)
		}
	}
}

// Corrupt implements failure.Corruptible: the detector, the cursor (which
// syncCursor will immediately override — kept here to document that it
// is derived), the open instances (dropped: syncCursor reopens the window
// fresh), and the log (a few poisoned entries). One machine's round
// variables are drawn and thrown away, so a strike takes a fixed number
// of draws and poisons the same slots whatever the machine's layout.
func (r *Replica) Corrupt(rng *rand.Rand) {
	r.det.Corrupt(rng)
	r.cur = uint64(rng.Int63n(MaxCorruptSlot))
	r.ins = nil
	new(ctcons.Machine).CorruptRound(rng)
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

// String aids debugging.
func (r *Replica) String() string {
	in := r.at(r.cur)
	if in == nil {
		return fmt.Sprintf("replica[%v slot=%d dormant log=%d]", r.id, r.cur, r.LogLen())
	}
	return fmt.Sprintf("replica[%v slot=%d round=%d log=%d]", r.id, r.cur, in.Round(), r.LogLen())
}
