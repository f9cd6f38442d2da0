package smr

import (
	"math/rand"
	"slices"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// This file is the batching frontend: one consensus slot decides a whole
// batch of submitted commands instead of one. Clients Submit commands
// into a per-replica queue; a seeded open-window policy seals the queue
// into batches; the inner replicated log runs completely unchanged and
// decides batch IDs (its Value domain); a side channel (BatchAnnounce)
// carries each batch's contents, re-announced while the batch is in
// flight and served on demand (BatchRequest) afterwards, so every
// replica can expand the decided ID sequence back into the identical
// command sequence. Expansion is a pure fold over the decided slots in
// slot order — two replicas that have expanded the same slots have
// emitted the same commands, which reduces batched agreement to the
// inner log's per-slot agreement.

// NoOp is the reserved proposal that decides a slot without committing
// a command: a replica woken by a peer's SlotMsg starts with it, and a
// replica whose fold is stalled proposes it (see proposal). It is
// ctcons's sentinel, which a coordinator passes over on a timestamp tie.
const NoOp = ctcons.NoOp

// Batch is a sealed run of submitted commands under one consensus value.
type Batch struct {
	ID   Value
	Cmds []Value
}

// BatchAnnounce disseminates a batch's contents (the inner consensus
// only ever carries its ID).
type BatchAnnounce struct{ Batch Batch }

// BatchRequest asks a peer for a batch whose ID was decided but whose
// contents never arrived (announce lost to a crash or a partition).
type BatchRequest struct{ ID Value }

// BatchPolicy is the seeded open-window sealing policy.
type BatchPolicy struct {
	// MaxBatch seals the pending queue as soon as it holds this many
	// commands. ≤ 0 defaults to 64.
	MaxBatch int
	// Window bounds how many sealed batches may be in flight (sealed but
	// not yet decided) at once; sealing pauses when the window is full.
	// ≤ 0 defaults to 2.
	Window int
	// HoldFor bounds, in ticks, how long a short (below-MaxBatch) queue
	// may wait for more commands before being sealed anyway. Each seal
	// draws the actual hold from the replica's seeded rng in [1,HoldFor],
	// so replicas do not seal in lockstep. ≤ 0 defaults to 3.
	HoldFor int
	// Seed derives each replica's sealing rng (seed per replica:
	// Seed*1000003 + id).
	Seed int64
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 64
	}
	if p.Window <= 0 {
		p.Window = 2
	}
	if p.HoldFor <= 0 {
		p.HoldFor = 3
	}
	return p
}

// BatchTrace observes a replica's per-command milestones for causal op
// tracing: Sealed fires when a command leaves the pending queue into a
// sealed batch, Committed when the expand fold emits it into the
// committed stream. Both carry the replica's sim time. The hooks run
// inside the engine step on the driving goroutine; keep them cheap. A
// nil *BatchTrace (the default) costs one branch per seal/expand — the
// nil-hook pattern the engine instrumentation uses.
type BatchTrace struct {
	// Sealed reports cmd entering the sealed batch with the given ID.
	Sealed func(cmd Value, batch Value, at async.Time)
	// Committed reports cmd emitted at the given inner-log slot.
	Committed func(cmd Value, slot uint64, at async.Time)
}

// BatchingReplica wraps a Replica: commands go in through Submit, the
// committed command stream comes out of Decided. The embedded replica's
// log carries batch IDs; everything below the Value domain is untouched.
type BatchingReplica struct {
	*Replica
	pol   BatchPolicy
	rng   *rand.Rand
	trace *BatchTrace
	nowT  async.Time // last engine time seen, for trace stamps

	pending []Value // submitted, not yet sealed
	open    []Batch // sealed, not yet seen decided (the open window)
	seq     int64   // next batch sequence number (ID = seq*n + id)
	held    int     // ticks the current short queue has waited
	holdFor int     // seeded hold budget for the current short queue

	known    map[Value][]Value // batch contents by ID (own + announced)
	next     uint64            // next slot to expand
	expanded map[Value]uint64  // batch ID → slot it was expanded at (dedupe)
	out      []Value           // the committed command stream, in order
	asked    bool              // one BatchRequest per tick at most

	// The BatchAnnounce boxes of the last tick, in open-window order.
	// One is sent again only after its batch is compared with an open
	// one, so they are not state: Corrupt leaves them alone.
	announced []any
}

var _ async.Proc = (*BatchingReplica)(nil)

// NewBatchingReplicas builds n batching replicas over a shared ◊W
// detector. The inner replicas' command source is each frontend's
// proposal, so the consensus path only ever sees batch IDs, NoOp and
// Idle.
func NewBatchingReplicas(n int, weak detector.WeakDetector, pol BatchPolicy) ([]*BatchingReplica, []async.Proc) {
	pol = pol.withDefaults()
	bs := make([]*BatchingReplica, n)
	for i := 0; i < n; i++ {
		bs[i] = &BatchingReplica{
			pol:      pol,
			rng:      rand.New(rand.NewSource(pol.Seed*1000003 + int64(i))),
			known:    make(map[Value][]Value),
			expanded: make(map[Value]uint64),
		}
	}
	cmds := func(p proc.ID, slot uint64) Value {
		if bs[p].Replica == nil {
			return Idle // still being built: nothing is open yet
		}
		return bs[p].proposal(slot)
	}
	rs, _ := NewReplicas(n, cmds, weak)
	aps := make([]async.Proc, n)
	for i := range rs {
		bs[i].Replica = rs[i]
		aps[i] = bs[i]
	}
	return bs, aps
}

// SetTrace installs (or clears, with nil) the tracing hooks. Call from
// the driving goroutine, like Submit.
func (b *BatchingReplica) SetTrace(t *BatchTrace) { b.trace = t }

// Submit queues one command for batching. Safe before the engine starts
// and from the driving goroutine between runs.
func (b *BatchingReplica) Submit(v Value) { b.pending = append(b.pending, v) }

// Backlog returns how many submitted commands are not yet sealed.
func (b *BatchingReplica) Backlog() int { return len(b.pending) }

// Decided returns the committed command stream expanded so far, in
// commit order. The slice is owned by the replica; do not mutate.
func (b *BatchingReplica) Decided() []Value { return b.out }

// proposal is the inner replica's CommandSource. For slot cur+k it is
// the k-th open batch not already decided in the log between the fold
// and the cursor, so a batch the log holds but the fold has not yet
// retired is not decided again. With no such batch it is NoOp while the
// fold is stalled — slots must keep deciding until the forfeit in expand
// can fire — and Idle otherwise. Nothing here is stored: dormancy is
// re-derived from the open window, the log and the fold on every step.
func (b *BatchingReplica) proposal(slot uint64) Value {
	k := slot - b.cur
	for _, batch := range b.open {
		if b.folding(batch.ID) {
			continue
		}
		if k == 0 {
			return batch.ID
		}
		k--
	}
	if b.stalled() {
		return NoOp
	}
	return Idle
}

// folding reports whether id is decided at a slot in [next, cur): one the
// fold will reach without another decision.
func (b *BatchingReplica) folding(id Value) bool {
	for s := max(b.next, b.log.base); s < b.cur; s++ {
		if e, ok := b.log.get(s); ok && e.val == id {
			return true
		}
	}
	return false
}

// stalled reports whether the fold is waiting on a decided batch whose
// contents it does not know.
func (b *BatchingReplica) stalled() bool {
	if b.next >= b.cur {
		return false
	}
	id, ok := b.Get(b.next)
	if !ok || id < 0 {
		return false
	}
	if _, dup := b.expanded[id]; dup {
		return false
	}
	_, known := b.known[id]
	return !known
}

// OnTick implements async.Proc: seal per policy, re-announce the open
// window, run the inner replica, then expand newly decided slots.
func (b *BatchingReplica) OnTick(ctx async.Context) {
	b.nowT = ctx.Now()
	b.asked = false
	b.sealTick()
	// Entry k is overwritten while later batches still search the list;
	// since content is compared, that can cost a fresh box, never a
	// wrong one.
	for k, batch := range b.open {
		box := b.announce(batch)
		if k == len(b.announced) {
			b.announced = append(b.announced, nil)
		}
		b.announced[k] = box
		ctx.Broadcast(box)
	}
	clear(b.announced[len(b.open):])
	b.announced = b.announced[:len(b.open)]
	b.Replica.OnTick(ctx)
	b.expand(ctx)
}

// announce returns batch boxed as a BatchAnnounce, reusing a box of the
// last tick's that carries an equal batch: an open batch does not change,
// so it is boxed once.
func (b *BatchingReplica) announce(batch Batch) any {
	for _, box := range b.announced {
		if old, ok := box.(BatchAnnounce); ok && old.Batch.ID == batch.ID && slices.Equal(old.Batch.Cmds, batch.Cmds) {
			return box
		}
	}
	return BatchAnnounce{Batch: batch}
}

// OnMessage implements async.Proc.
func (b *BatchingReplica) OnMessage(ctx async.Context, from proc.ID, payload any) {
	b.nowT = ctx.Now()
	switch m := payload.(type) {
	case BatchAnnounce:
		b.learn(m.Batch)
		return
	case BatchRequest:
		if cmds, ok := b.known[m.ID]; ok {
			ctx.Send(from, BatchAnnounce{Batch: Batch{ID: m.ID, Cmds: cmds}})
		}
		return
	}
	b.Replica.OnMessage(ctx, from, payload)
	b.expand(ctx)
}

// sealTick applies the open-window policy: full batches seal at once; a
// short queue seals after a seeded number of ticks; a full window (or an
// empty queue) seals nothing.
func (b *BatchingReplica) sealTick() {
	for len(b.open) < b.pol.Window && len(b.pending) >= b.pol.MaxBatch {
		b.seal(b.pol.MaxBatch)
	}
	if len(b.open) >= b.pol.Window || len(b.pending) == 0 {
		b.held, b.holdFor = 0, 0
		return
	}
	if b.holdFor == 0 {
		b.holdFor = 1 + b.rng.Intn(b.pol.HoldFor)
	}
	b.held++
	if b.held >= b.holdFor {
		b.seal(len(b.pending))
		b.held, b.holdFor = 0, 0
	}
}

// seal closes the first k pending commands into a batch and opens it.
func (b *BatchingReplica) seal(k int) {
	id := Value(b.seq*int64(b.n) + int64(b.id))
	b.seq++
	cmds := make([]Value, k)
	copy(cmds, b.pending)
	b.pending = b.pending[:copy(b.pending, b.pending[k:])]
	b.known[id] = cmds
	b.open = append(b.open, Batch{ID: id, Cmds: cmds})
	if b.trace != nil && b.trace.Sealed != nil {
		for _, c := range cmds {
			b.trace.Sealed(c, id, b.nowT)
		}
	}
}

// learn stores an announced batch's contents.
func (b *BatchingReplica) learn(batch Batch) {
	if batch.ID < 0 {
		return
	}
	if _, ok := b.known[batch.ID]; !ok {
		b.known[batch.ID] = batch.Cmds
	}
}

// expand folds newly decided slots into the committed command stream, in
// slot order. A slot deciding NoOp, an already-expanded batch ID (the
// same open batch can be proposed for two slots), or an ID nobody can
// name contributes nothing; an ID whose contents are not yet known
// stalls the fold and asks a peer, so the stream never reorders.
func (b *BatchingReplica) expand(ctx async.Context) {
	// Fold-cursor invariant: next ≤ cur (the fold never outruns the
	// commit cursor). Corruption breaks it transiently — a corrupted
	// cursor can sit 2⁴⁰ slots ahead, the wholesale forfeit below then
	// latches next onto it, and when gossip adoption pulls the cursor
	// back to the group's live window the fold would be stranded above
	// it forever: the replica stops expanding, never retires its open
	// batches, and re-proposes them until peers' dedupe records age out.
	// Resetting to the commit cursor restores the invariant; the span
	// skipped is the corrupted one, whose agreement is forfeit anyway.
	if b.next > b.cur {
		b.next = b.cur
	}
	if b.next == b.cur {
		// Caught up, the case on nearly every message: cur is the slot
		// above the frontier, so the log holds nothing to fold at it.
		return
	}
	for {
		id, ok := b.Get(b.next)
		if !ok {
			if b.next < b.cur {
				// Pruned below the gossip window before we expanded it —
				// only possible after corruption minted a far-future
				// frontier. Skip; agreement for the corrupted span is
				// forfeit anyway (same trade as the inner log).
				if b.cur-b.next > GossipWindow {
					// Everything below cur−GossipWindow is pruned from the
					// log (syncCursor prunes before expand ever runs), so
					// each of those slots would take this branch one by
					// one. Forfeit them wholesale: a corrupted cursor can
					// sit 2⁴⁰ slots ahead, and the per-slot walk would
					// never terminate on a human timescale.
					b.next = b.cur - GossipWindow
					continue
				}
				b.next++
				continue
			}
			return
		}
		if id >= 0 {
			if _, dup := b.expanded[id]; dup {
				id = NoOp // duplicate decision of the same batch
			}
		}
		if id >= 0 {
			cmds, ok := b.known[id]
			if !ok {
				if b.cur-b.next > GossipWindow {
					// Nobody supplied the contents for a full gossip
					// window of slots: a corruption-minted ID. Forfeit
					// the slot — the same validity trade the inner log
					// makes for corrupted decisions.
					b.next++
					continue
				}
				// Decided but unknown: recover the contents before
				// advancing. One request per tick keeps this quiet.
				if ctx != nil && !b.asked {
					ctx.Broadcast(BatchRequest{ID: id})
					b.asked = true
				}
				return
			}
			b.out = append(b.out, cmds...)
			if b.trace != nil && b.trace.Committed != nil {
				for _, c := range cmds {
					b.trace.Committed(c, b.next, b.nowT)
				}
			}
			b.expanded[id] = b.next
			b.retire(id)
		}
		b.next++
		// Drop dedupe records too old to ever be re-decided (the inner
		// log prunes below its gossip window, so nothing can resurface
		// a slot that far back) — keeps memory bounded on long runs.
		if b.next > 2*GossipWindow {
			floor := b.next - 2*GossipWindow
			for bid, slot := range b.expanded {
				if slot < floor {
					delete(b.expanded, bid)
					delete(b.known, bid)
				}
			}
		}
	}
}

// retire removes a decided batch from the open window.
func (b *BatchingReplica) retire(id Value) {
	for i, batch := range b.open {
		if batch.ID == id {
			b.open = append(b.open[:i], b.open[i+1:]...)
			return
		}
	}
}
