package smr

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// silentWeak is a ◊W oracle that suspects nobody and allocates nothing,
// so an allocation count of a replica's tick is the replica's own.
type silentWeak struct{}

func (silentWeak) Detect(async.Time, proc.ID, proc.Set) {}

// discardCtx is an async.Context that drops every send.
type discardCtx struct{}

func (discardCtx) Now() async.Time   { return 0 }
func (discardCtx) Send(proc.ID, any) {}
func (discardCtx) Broadcast(any)     {}
func (discardCtx) Rand() *rand.Rand  { return nil }

// TestSteadyTickAllocatesOnlySyncMsg: a replica whose log does not
// change and whose commit instance keeps re-sending the same round
// traffic boxes its log gossip, its estimate and their SlotMsg wrappers
// once. What a steady tick still allocates is the detector's SyncMsg (its
// records copy and its box): its own counter moves every tick.
func TestSteadyTickAllocatesOnlySyncMsg(t *testing.T) {
	rs, _ := NewReplicas(3, cmdsFor(1), silentWeak{})
	r := rs[1]
	var ctx discardCtx
	r.OnMessage(ctx, 0, LogGossip{Entries: []SlotDecision{{0, 1, 10}, {1, 1, 11}, {2, 1, 12}}})
	if r.CurrentSlot() != 3 || r.at(3) == nil {
		t.Fatalf("cursor %d, instance %v: want the commit instance open at slot 3", r.CurrentSlot(), r.at(3))
	}
	const ceiling = 2
	if avg := testing.AllocsPerRun(100, func() { r.OnTick(ctx) }); avg != ceiling {
		t.Errorf("steady tick allocates %.1f times, want %d (the SyncMsg)", avg, ceiling)
	}
	if r.CurrentSlot() != 3 || r.LogLen() != 3 {
		t.Fatalf("cursor %d, log %d after idle ticks: the measured tick was not steady", r.CurrentSlot(), r.LogLen())
	}
}

// TestSteadyTickWithSimulatedWeak is TestSteadyTickAllocatesOnlySyncMsg
// over the store's ◊W oracle, past its accuracy time and suspecting
// nobody: the detector's query fills a set the replica owns, so the tick
// allocates what it does over the allocation-free oracle.
func TestSteadyTickWithSimulatedWeak(t *testing.T) {
	rs, _ := NewReplicas(3, cmdsFor(1), quietWeak(3, 1))
	r := rs[1]
	var ctx discardCtx
	r.OnMessage(ctx, 0, LogGossip{Entries: []SlotDecision{{0, 1, 10}, {1, 1, 11}, {2, 1, 12}}})
	const ceiling = 2
	if avg := testing.AllocsPerRun(100, func() { r.OnTick(ctx) }); avg != ceiling {
		t.Errorf("steady tick allocates %.1f times, want %d (the SyncMsg)", avg, ceiling)
	}
	if r.CurrentSlot() != 3 || r.LogLen() != 3 {
		t.Fatalf("cursor %d, log %d after idle ticks: the measured tick was not steady", r.CurrentSlot(), r.LogLen())
	}
}

// openBatch builds batching replica 1 of 3 with one open batch, ticked
// once so its re-sent boxes are filled.
func openBatch() *BatchingReplica {
	bs, _ := NewBatchingReplicas(3, silentWeak{}, BatchPolicy{MaxBatch: 2, Seed: 3})
	b := bs[1]
	b.Submit(10)
	b.Submit(11)
	b.OnTick(discardCtx{})
	return b
}

// TestBatchingSteadyTickAllocations: a batching replica whose one open
// batch waits undecided announces it every tick from one box, so its
// steady tick allocates what the inner replica's does (the SyncMsg).
func TestBatchingSteadyTickAllocations(t *testing.T) {
	b := openBatch()
	if len(b.open) != 1 {
		t.Fatalf("open window = %d batches, want 1", len(b.open))
	}
	const ceiling = 2
	if avg := testing.AllocsPerRun(100, func() { b.OnTick(discardCtx{}) }); avg != ceiling {
		t.Errorf("steady batching tick allocates %.1f times, want %d (the SyncMsg)", avg, ceiling)
	}
	if len(b.open) != 1 || b.CurrentSlot() != 0 {
		t.Fatalf("open %d, cursor %d after idle ticks: the measured tick was not steady", len(b.open), b.CurrentSlot())
	}
}

// TestScribbledAnnounceBoxesAreNotSent: a kept BatchAnnounce box is
// compared with the open batch before it is sent again, so boxes
// scribbled with another batch under the same ID, or with another
// message, change nothing that the next tick sends.
func TestScribbledAnnounceBoxesAreNotSent(t *testing.T) {
	for _, bogus := range []any{
		BatchAnnounce{Batch: Batch{ID: openBatch().open[0].ID, Cmds: []Value{10, 99}}},
		BatchAnnounce{Batch: Batch{ID: 77, Cmds: []Value{10, 11}}},
		LogGossip{},
	} {
		clean, scribbled := openBatch(), openBatch()
		for i := range scribbled.announced {
			scribbled.announced[i] = bogus
		}
		var want, got captureCtx
		clean.OnTick(&want)
		scribbled.OnTick(&got)
		if !reflect.DeepEqual(want.sent, got.sent) {
			t.Fatalf("scribbled with %v, sent:\n got %v\nwant %v", bogus, got.sent, want.sent)
		}
	}
}

// captureCtx records every payload a callback sends.
type captureCtx struct{ sent []any }

func (c *captureCtx) Now() async.Time       { return 0 }
func (c *captureCtx) Send(_ proc.ID, p any) { c.sent = append(c.sent, p) }
func (c *captureCtx) Broadcast(p any)       { c.sent = append(c.sent, p) }
func (c *captureCtx) Rand() *rand.Rand      { return nil }

// TestScribbledBoxesAreNotSent: the boxes a replica keeps for re-sending
// are compared with its state before each use, so scribbling over them
// changes nothing that is sent: the next tick and the next decided-slot
// reply carry what a replica with fresh boxes sends.
func TestScribbledBoxesAreNotSent(t *testing.T) {
	build := func() *Replica {
		rs, _ := NewReplicas(3, cmdsFor(1), silentWeak{})
		r := rs[1]
		r.OnMessage(discardCtx{}, 0, LogGossip{Entries: []SlotDecision{{0, 1, 10}, {1, 1, 11}, {2, 1, 12}}})
		r.OnTick(discardCtx{}) // fill the boxes
		return r
	}
	clean, scribbled := build(), build()
	bogusEntries := []SlotDecision{{0, 9, 99}, {1, 9, 99}, {2, 9, 99}}
	scribbled.gossip = LogGossip{Entries: bogusEntries}
	scribbled.reply = LogGossip{Entries: []SlotDecision{{1, 9, 99}}}
	in := scribbled.at(3)
	for i := range in.sent {
		in.sent[i] = SlotMsg{Slot: 3, Inner: ctcons.EstimateMsg{Round: 0, Val: -5}}
	}

	var want, got captureCtx
	clean.OnTick(&want)
	scribbled.OnTick(&got)
	clean.OnMessage(&want, 2, SlotMsg{Slot: 1, Inner: ctcons.RoundMsg{}})
	scribbled.OnMessage(&got, 2, SlotMsg{Slot: 1, Inner: ctcons.RoundMsg{}})
	// Each SyncMsg carries the sender's own counter; both replicas ticked
	// equally often, so those are equal too.
	if !reflect.DeepEqual(want.sent, got.sent) {
		t.Fatalf("scribbled boxes were sent:\n got %v\nwant %v", got.sent, want.sent)
	}
}

// flight is a message in transit with a deep copy of its payload taken
// at send time.
type flight struct {
	at       int // delivery tick
	to, from proc.ID
	bcast    bool
	payload  any
	snap     any
}

// snapshot deep-copies the payloads whose content lives behind a slice.
func snapshot(p any) any {
	switch m := p.(type) {
	case LogGossip:
		return LogGossip{Entries: slices.Clone(m.Entries)}
	case detector.SyncMsg:
		return detector.SyncMsg{Records: slices.Clone(m.Records)}
	}
	return p // SlotMsg and its inner messages are plain values
}

// recordingCtx is an async.Context over a tick-granular network that
// snapshots every payload it is handed.
type recordingCtx struct {
	now      int
	self     proc.ID
	n        int
	rng      *rand.Rand
	inflight *[]flight
}

func (c *recordingCtx) Now() async.Time  { return async.Time(c.now) * ms }
func (c *recordingCtx) Rand() *rand.Rand { return c.rng }

func (c *recordingCtx) Send(to proc.ID, p any) { c.send(to, p, false) }

func (c *recordingCtx) Broadcast(p any) {
	for q := 0; q < c.n; q++ {
		c.send(proc.ID(q), p, true)
	}
}

func (c *recordingCtx) send(to proc.ID, p any, bcast bool) {
	*c.inflight = append(*c.inflight, flight{
		at: c.now + 1 + c.rng.Intn(4), to: to, from: c.self, bcast: bcast, payload: p, snap: snapshot(p),
	})
}

// TestSentPayloadsAreNeverWritten: payloads are immutable once sent (the
// async.Context.Send contract), and the replica re-sends boxed values
// while their content is unchanged, so reuse must never mean writing into
// one. A 3-replica pipelined group runs 2 400 ticks, one replica
// corrupted every 60 ticks, through a network that snapshots every
// payload when it is sent and compares it when it is delivered, up to
// 4 ticks later.
func TestSentPayloadsAreNeverWritten(t *testing.T) {
	const n, ticks, strikeEvery = 3, 2400, 60
	rs, _ := NewReplicas(n, cmdsFor(3), weakFor(n, nil, 3))
	for _, r := range rs {
		r.SetPipeline(2)
	}
	rng := rand.New(rand.NewSource(3))
	var inflight []flight
	ctxs := make([]recordingCtx, n)
	for i := range ctxs {
		ctxs[i] = recordingCtx{self: proc.ID(i), n: n, rng: rng, inflight: &inflight}
	}
	counts := map[string]int{}
	for now := 1; now <= ticks; now++ {
		if now%strikeEvery == 0 {
			rs[now/strikeEvery%n].Corrupt(rng)
		}
		var due []flight
		inflight = slices.DeleteFunc(inflight, func(f flight) bool {
			if f.at <= now {
				due = append(due, f)
				return true
			}
			return false
		})
		for _, f := range due {
			if !reflect.DeepEqual(f.payload, f.snap) {
				t.Fatalf("tick %d: %T from %v to %v changed in flight:\n sent %v\n  got %v",
					now, f.payload, f.from, f.to, f.snap, f.payload)
			}
			ctxs[f.to].now = now
			rs[f.to].OnMessage(&ctxs[f.to], f.from, f.payload)
			switch f.payload.(type) {
			case LogGossip:
				if f.bcast {
					counts["gossip"]++
				} else {
					counts["reply"]++ // the decided-slot reply
				}
			case SlotMsg:
				counts["slot"]++
			}
		}
		for i, r := range rs {
			ctxs[i].now = now
			r.OnTick(&ctxs[i])
		}
	}
	for _, kind := range []string{"gossip", "reply", "slot"} {
		if counts[kind] == 0 {
			t.Errorf("no %s payload was delivered: the run does not exercise its reuse", kind)
		}
	}
	if f, ok := rs[0].Frontier(); !ok || f < 100 {
		t.Errorf("frontier %d after %d ticks: the group barely ran", f, ticks)
	}
}
