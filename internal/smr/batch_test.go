package smr

import (
	"math/rand"
	"testing"

	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

func quietWeak(n int, seed int64) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: seed}
}

func buildBatching(n int, pol BatchPolicy, crashAt map[proc.ID]async.Time,
	seed int64) ([]*BatchingReplica, *async.Engine) {
	var weak detector.WeakDetector
	if crashAt == nil {
		weak = quietWeak(n, seed)
	} else {
		weak = weakFor(n, crashAt, seed)
	}
	bs, aps := NewBatchingReplicas(n, weak, pol)
	e := async.MustNewEngine(aps, async.Config{
		Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms, CrashAt: crashAt,
	})
	return bs, e
}

// drainUntil runs the engine in slices until every correct replica's
// expanded stream holds at least want commands (or the horizon passes).
func drainUntil(t *testing.T, e *async.Engine, bs []*BatchingReplica,
	correct proc.Set, want int, horizon async.Time) {
	t.Helper()
	for at := 100 * ms; at <= horizon; at += 100 * ms {
		e.RunUntil(at)
		done := true
		for _, b := range bs {
			if correct.Has(b.ID()) && len(b.Decided()) < want {
				done = false
				break
			}
		}
		if done {
			return
		}
	}
	for _, b := range bs {
		if correct.Has(b.ID()) {
			t.Logf("replica %v: %d/%d expanded, backlog %d, open %d",
				b.ID(), len(b.Decided()), want, b.Backlog(), len(b.open))
		}
	}
	t.Fatalf("streams did not drain %d commands within %v", want, horizon)
}

// checkStreams verifies the batched-agreement reduction: every correct
// replica's committed stream is a prefix of the longest one, and the
// first total commands of that stream are a permutation-free sequencing
// of the submitted commands — each submitted command exactly once.
func checkStreams(t *testing.T, bs []*BatchingReplica, correct proc.Set, submitted []Value) {
	t.Helper()
	var ref []Value
	for _, b := range bs {
		if correct.Has(b.ID()) && len(b.Decided()) > len(ref) {
			ref = b.Decided()
		}
	}
	for _, b := range bs {
		if !correct.Has(b.ID()) {
			continue
		}
		out := b.Decided()
		for i, v := range out {
			if ref[i] != v {
				t.Fatalf("replica %v diverges at position %d: %d vs %d", b.ID(), i, v, ref[i])
			}
		}
	}
	want := make(map[Value]int)
	for _, v := range submitted {
		want[v]++
	}
	for i, v := range ref[:len(submitted)] {
		if want[v] == 0 {
			t.Fatalf("stream position %d: command %d duplicated or never submitted", i, v)
		}
		want[v]--
	}
}

// TestBatchingCommitsAll: commands submitted across all replicas drain
// into one agreed stream with every command exactly once.
func TestBatchingCommitsAll(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		const n, total = 3, 90
		bs, e := buildBatching(n, BatchPolicy{MaxBatch: 8, Seed: seed}, nil, seed)
		var submitted []Value
		for i := 0; i < total; i++ {
			v := Value(int64(i) + 1000)
			bs[i%n].Submit(v)
			submitted = append(submitted, v)
		}
		drainUntil(t, e, bs, proc.Universe(n), total, 4000*ms)
		checkStreams(t, bs, proc.Universe(n), submitted)
	}
}

// TestBatchingPipelined: batching composed with pipeline depth 3 — the
// throughput configuration the benchmarks run — still yields one agreed,
// complete stream.
func TestBatchingPipelined(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		const n, total = 3, 120
		bs, e := buildBatching(n, BatchPolicy{MaxBatch: 16, Seed: seed}, nil, seed+50)
		for _, b := range bs {
			b.SetPipeline(3)
		}
		var submitted []Value
		for i := 0; i < total; i++ {
			v := Value(int64(i) + 5000)
			bs[i%n].Submit(v)
			submitted = append(submitted, v)
		}
		drainUntil(t, e, bs, proc.Universe(n), total, 4000*ms)
		checkStreams(t, bs, proc.Universe(n), submitted)
	}
}

// TestBatchingWithCrashes: a minority crash does not lose or reorder the
// survivors' submitted commands.
func TestBatchingWithCrashes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		const n = 5
		crash := map[proc.ID]async.Time{4: 60 * ms}
		bs, e := buildBatching(n, BatchPolicy{MaxBatch: 4, Seed: seed}, crash, seed)
		var submitted []Value
		for i := 0; i < 40; i++ {
			v := Value(int64(i) + 7000)
			bs[i%(n-1)].Submit(v) // survivors only; a crashed client's queue dies with it
			submitted = append(submitted, v)
		}
		drainUntil(t, e, bs, e.Correct(), len(submitted), 8000*ms)
		checkStreams(t, bs, e.Correct(), submitted)
	}
}

// TestBatchingSealPolicy: a short queue seals after the seeded hold, a
// full queue seals immediately, and a full window pauses sealing.
func TestBatchingSealPolicy(t *testing.T) {
	bs, _ := NewBatchingReplicas(1, quietWeak(1, 1), BatchPolicy{MaxBatch: 4, Window: 2, HoldFor: 3, Seed: 9})
	b := bs[0]
	for i := 0; i < 9; i++ {
		b.Submit(Value(int64(i)))
	}
	b.sealTick()
	if len(b.open) != 2 || len(b.open[0].Cmds) != 4 || len(b.open[1].Cmds) != 4 {
		t.Fatalf("full batches: open=%d", len(b.open))
	}
	if b.Backlog() != 1 {
		t.Fatalf("backlog = %d, want 1", b.Backlog())
	}
	// Window full: the short remainder must wait.
	for i := 0; i < 10; i++ {
		b.sealTick()
	}
	if len(b.open) != 2 {
		t.Fatalf("sealed past the window: open=%d", len(b.open))
	}
	// Retire one batch; the short remainder seals within HoldFor ticks.
	b.retire(b.open[0].ID)
	for i := 0; i < 3 && b.Backlog() > 0; i++ {
		b.sealTick()
	}
	if b.Backlog() != 0 || len(b.open) != 2 {
		t.Fatalf("short seal failed: backlog=%d open=%d", b.Backlog(), len(b.open))
	}
	if got := len(b.open[1].Cmds); got != 1 {
		t.Fatalf("short batch carries %d commands, want 1", got)
	}
}

// TestPipelinedLogsAgree: the plain replicated log under pipeline depth 3
// keeps per-slot agreement and validity on clean runs.
func TestPipelinedLogsAgree(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rs, e, cmds := build(4, nil, seed)
		for _, r := range rs {
			r.SetPipeline(3)
		}
		e.RunUntil(800 * ms)
		correct := proc.Universe(4)
		verifyLogs(t, rs, correct, 4, cmds, true)
		if f := minFrontier(rs, correct); f < 5 {
			t.Fatalf("seed=%d: frontier only %d with pipelining", seed, f)
		}
	}
}

// TestPipelinedCorruptedStartRecovers: corruption of every replica —
// lookahead included — still leaves an advancing, agreed log.
func TestPipelinedCorruptedStartRecovers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		crash := map[proc.ID]async.Time{2: 40 * ms}
		rs, e, cmds := build(5, crash, seed)
		for _, r := range rs {
			r.SetPipeline(4)
		}
		rng := rand.New(rand.NewSource(seed * 23))
		for _, r := range rs {
			r.Corrupt(rng)
		}
		e.RunUntil(300 * ms)
		before := minFrontier(rs, e.Correct())
		e.RunUntil(1200 * ms)
		after := minFrontier(rs, e.Correct())
		if after <= before {
			t.Fatalf("seed=%d: no post-corruption progress (%d → %d)", seed, before, after)
		}
		verifyLogs(t, rs, e.Correct(), 5, cmds, false)
	}
}

// TestPipelineHoldsDecisionOrder: a lookahead instance that decides
// before the commit slot holds its decision out of the log until its
// turn — pipelined commits enter the log in slot order. (Gossip adoption
// is a different write path and is not covered here.)
func TestPipelineHoldsDecisionOrder(t *testing.T) {
	rs, _, _ := build(3, nil, 3)
	r := rs[0]
	r.SetPipeline(3)
	if len(r.aux) != 2 {
		t.Fatalf("lookahead window = %d instances, want 2", len(r.aux))
	}
	in := r.aux[r.auxIndex(r.cur+1)].in
	in.decided, in.decRound, in.decVal = true, 0, 42
	r.syncCursor()
	if _, ok := r.Get(r.cur + 1); ok {
		t.Fatal("held decision leaked into the log before its slot's turn")
	}
	// Decide the commit slot: both decisions must now commit, in order.
	r.inst.decided, r.inst.decRound, r.inst.decVal = true, 0, 41
	r.syncCursor()
	if v, ok := r.Get(0); !ok || v != 41 {
		t.Fatalf("slot 0 = %d,%v want 41", v, ok)
	}
	if v, ok := r.Get(1); !ok || v != 42 {
		t.Fatalf("slot 1 = %d,%v want 42 (promoted held decision)", v, ok)
	}
	if r.CurrentSlot() != 2 {
		t.Fatalf("cursor = %d, want 2", r.CurrentSlot())
	}
}

// TestExpandDedupesCollidingID: a corruption-minted decision can collide
// with a live batch ID inside the gossip window (Corrupt poisons log
// entries with values in [0, 2²⁰) — the same range real IDs start in).
// The fold must commit the batch's commands exactly once and record the
// duplicate slot as NoOp.
func TestExpandDedupesCollidingID(t *testing.T) {
	bs, _ := NewBatchingReplicas(1, quietWeak(1, 1), BatchPolicy{MaxBatch: 2, Seed: 3})
	b := bs[0]
	b.Submit(10)
	b.Submit(11)
	b.sealTick()
	if len(b.open) != 1 {
		t.Fatalf("open window = %d batches, want 1", len(b.open))
	}
	id := b.open[0].ID
	// Slot 0: the live decision. Slot 1: the corruption-minted collision,
	// one slot later, well inside GossipWindow. Slot 2: a NoOp so the
	// cursor sits past both.
	b.log.put(0, entry{val: id})
	b.log.put(1, entry{val: id})
	b.log.put(2, entry{val: NoOp})
	b.cur = 3
	b.expand(nil)
	if b.next != 3 {
		t.Fatalf("expanded through slot %d, want 3", b.next)
	}
	if len(b.out) != 2 || b.out[0] != 10 || b.out[1] != 11 {
		t.Fatalf("committed stream = %v, want [10 11] exactly once", b.out)
	}
	if slot, ok := b.expanded[id]; !ok || slot != 0 {
		t.Fatalf("dedupe record = %d,%v, want slot 0", slot, ok)
	}
	if len(b.open) != 0 {
		t.Fatalf("decided batch not retired: open=%d", len(b.open))
	}
}

// TestExpandForfeitsUnknownID: a decided ID nobody can name stalls the
// fold while it is still inside the gossip window (a peer might yet
// answer a BatchRequest) and is forfeited once a full window has passed
// — the direct test of the forfeit branch.
func TestExpandForfeitsUnknownID(t *testing.T) {
	bs, _ := NewBatchingReplicas(1, quietWeak(1, 1), BatchPolicy{MaxBatch: 2, Seed: 3})
	b := bs[0]
	b.Submit(20)
	b.sealTick() // hold path: not sealed yet (short queue)
	const ghost = Value(7777)
	b.log.put(0, entry{val: ghost})
	for s := uint64(1); s <= 4; s++ {
		b.log.put(s, entry{val: NoOp})
	}
	b.cur = 5
	b.expand(nil)
	if b.next != 0 {
		t.Fatalf("fold advanced to %d past an in-window unknown ID", b.next)
	}
	for s := uint64(5); s <= 8; s++ {
		b.log.put(s, entry{val: NoOp})
	}
	b.cur = 9 // cur-next = 9 > GossipWindow: the ghost is now forfeit
	b.expand(nil)
	if b.next != 9 {
		t.Fatalf("fold stopped at %d, want 9 after forfeiting the ghost", b.next)
	}
	if len(b.out) != 0 {
		t.Fatalf("forfeited slot committed commands: %v", b.out)
	}
}

// TestExpandJumpsCorruptedFrontier: corruption can mint a frontier up to
// 2²⁰ slots ahead (and a corrupted cursor up to 2⁴⁰); the fold must
// forfeit the pruned span wholesale instead of walking it slot by slot,
// and still expand the live batch decided inside the new window.
func TestExpandJumpsCorruptedFrontier(t *testing.T) {
	bs, _ := NewBatchingReplicas(1, quietWeak(1, 1), BatchPolicy{MaxBatch: 1, Seed: 3})
	b := bs[0]
	b.Submit(30)
	b.sealTick()
	id := b.open[0].ID
	const far = uint64(1) << 40
	b.log.put(far-1, entry{val: id})
	b.cur = far
	b.expand(nil)
	if b.next != far {
		t.Fatalf("fold at %d, want %d (wholesale forfeit of the pruned span)", b.next, far)
	}
	if len(b.out) != 1 || b.out[0] != 30 {
		t.Fatalf("committed stream = %v, want [30]", b.out)
	}
}

// TestBatchingCorruptedRecovers: end to end, a mid-run inner-log
// corruption (far-future cursor, poisoned entries colliding with the
// live ID range) leaves a group that keeps committing: every command
// submitted after the corruption is expanded by every replica, each at
// most once per stream.
func TestBatchingCorruptedRecovers(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		const n = 3
		bs, e := buildBatching(n, BatchPolicy{MaxBatch: 4, Seed: seed}, nil, seed)
		for i := 0; i < 24; i++ {
			bs[i%n].Submit(Value(int64(i) + 100))
		}
		drainUntil(t, e, bs, proc.Universe(n), 24, 4000*ms)

		rng := rand.New(rand.NewSource(seed * 31))
		bs[1].Replica.Corrupt(rng)
		fresh := make(map[Value]bool)
		for i := 0; i < 24; i++ {
			v := Value(int64(i) + 9000)
			bs[i%n].Submit(v)
			fresh[v] = true
		}
		deadline := e.Now() + 8000*ms
		for {
			e.RunUntil(e.Now() + 100*ms)
			done := true
			for _, b := range bs {
				got := 0
				for _, v := range b.Decided() {
					if fresh[v] {
						got++
					}
				}
				if got < len(fresh) {
					done = false
				}
			}
			if done {
				break
			}
			if e.Now() > deadline {
				t.Fatalf("seed=%d: post-corruption commands not committed everywhere", seed)
			}
		}
		for _, b := range bs {
			seen := make(map[Value]int)
			for _, v := range b.Decided() {
				seen[v]++
				if seen[v] > 1 {
					t.Fatalf("seed=%d: replica %v committed %d twice", seed, b.ID(), v)
				}
			}
		}
	}
}

// TestBatchTrace pins the tracing hook contract: every submitted
// command fires Sealed exactly once on its submitting replica and
// Committed exactly once on each replica's fold, seals precede commits
// in sim time, and commit order matches the decided stream.
func TestBatchTrace(t *testing.T) {
	const n, total = 3, 40
	bs, e := buildBatching(n, BatchPolicy{MaxBatch: 8, Seed: 5}, nil, 5)
	sealed := make(map[Value]async.Time)
	committed := make(map[Value]async.Time)
	var commitOrder []Value
	bs[0].SetTrace(&BatchTrace{
		Sealed: func(cmd, batch Value, at async.Time) {
			if _, dup := sealed[cmd]; dup {
				t.Errorf("command %d sealed twice", cmd)
			}
			if batch < 0 {
				t.Errorf("command %d sealed into negative batch %d", cmd, batch)
			}
			sealed[cmd] = at
		},
		Committed: func(cmd Value, slot uint64, at async.Time) {
			if _, dup := committed[cmd]; dup {
				t.Errorf("command %d committed twice", cmd)
			}
			committed[cmd] = at
			commitOrder = append(commitOrder, cmd)
		},
	})
	var submitted []Value
	for i := 0; i < total; i++ {
		v := Value(int64(i) + 7000)
		bs[0].Submit(v)
		submitted = append(submitted, v)
	}
	drainUntil(t, e, bs, proc.Universe(n), total, 4000*ms)
	checkStreams(t, bs, proc.Universe(n), submitted)

	for _, v := range submitted {
		sa, ok := sealed[v]
		if !ok {
			t.Fatalf("command %d never fired Sealed", v)
		}
		ca, ok := committed[v]
		if !ok {
			t.Fatalf("command %d never fired Committed", v)
		}
		if ca < sa {
			t.Fatalf("command %d committed at %d before sealing at %d", v, ca, sa)
		}
	}
	decided := bs[0].Decided()
	for i, v := range commitOrder {
		if decided[i] != v {
			t.Fatalf("commit hook order diverges from Decided at %d: %d vs %d", i, v, decided[i])
		}
	}
	// Clearing the hook stops the callbacks.
	bs[0].SetTrace(nil)
	before := len(commitOrder)
	bs[0].Submit(Value(9999))
	drainUntil(t, e, bs, proc.Universe(n), total+1, 8000*ms)
	if len(commitOrder) != before {
		t.Fatal("cleared trace hook still fired")
	}
}
