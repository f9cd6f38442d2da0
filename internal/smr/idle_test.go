package smr

import (
	"math/rand"
	"slices"
	"testing"

	"ftss/internal/detector"
	"ftss/internal/sim/async"
)

// buildStoreGroup builds one group as internal/store builds a shard:
// n = 3 batching replicas, pipeline depth 2, the store's BatchPolicy and
// engine delays, and a quiet detector.
func buildStoreGroup(seed int64) ([]*BatchingReplica, *async.Engine) {
	const n = 3
	bs, aps := NewBatchingReplicas(n, &detector.SimulatedWeak{N: n, Seed: seed},
		BatchPolicy{MaxBatch: 64, Window: 2, HoldFor: 2, Seed: seed})
	for _, b := range bs {
		b.SetPipeline(2)
	}
	e := async.MustNewEngine(aps, async.Config{
		Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 2 * ms,
	})
	return bs, e
}

// frontierOf returns b's frontier as a signed slot, −1 before any.
func frontierOf(b *BatchingReplica) int64 {
	f, ok := b.Frontier()
	if !ok {
		return -1
	}
	return int64(f)
}

// runUntilDecided steps e one tick at a time until b's committed stream
// holds want commands, failing the test after horizon more sim time.
func runUntilDecided(t *testing.T, e *async.Engine, b *BatchingReplica, want int, horizon async.Time) {
	t.Helper()
	deadline := e.Now() + horizon
	for len(b.Decided()) < want {
		if e.Now() >= deadline {
			t.Fatalf("replica %v: %d of %d commands decided after %v", b.ID(), len(b.Decided()), want, horizon)
		}
		e.RunUntil(e.Now() + ms)
	}
}

// TestLoneCommandTakesOneSlot: a command submitted to a group with
// nothing else to do is decided in exactly one consensus slot. No NoOp
// slot runs before it (nothing was in flight while the group was idle)
// and none after it (its batch is not proposed again once the log holds
// it).
func TestLoneCommandTakesOneSlot(t *testing.T) {
	bs, e := buildStoreGroup(1)
	for i := 0; i < 200; i++ {
		before := frontierOf(bs[0])
		bs[i%len(bs)].Submit(Value(int64(i)))
		runUntilDecided(t, e, bs[0], i+1, 2000*ms)
		if got := bs[0].Decided()[i]; got != Value(int64(i)) {
			t.Fatalf("command %d: committed %d", i, got)
		}
		if step := frontierOf(bs[0]) - before; step != 1 {
			t.Fatalf("command %d moved the frontier by %d slots, want 1", i, step)
		}
	}
}

// TestIdleGroupDecidesNothing: with nothing submitted, a group decides
// no slot — neither from a fresh start nor after it has committed work
// and gone quiet — while it keeps ticking for 100 sim-ms.
func TestIdleGroupDecidesNothing(t *testing.T) {
	bs, e := buildStoreGroup(2)
	check := func(phase string) {
		t.Helper()
		before := make([]int64, len(bs))
		for i, b := range bs {
			before[i] = frontierOf(b)
		}
		e.RunUntil(e.Now() + 100*ms)
		for i, b := range bs {
			if f := frontierOf(b); f != before[i] {
				t.Fatalf("%s: replica %d's frontier moved %d → %d with nothing submitted",
					phase, i, before[i], f)
			}
		}
	}
	check("fresh group")
	for i := 0; i < 5; i++ {
		bs[i%len(bs)].Submit(Value(int64(100 + i)))
	}
	for _, b := range bs {
		runUntilDecided(t, e, b, 5, 2000*ms)
	}
	e.RunUntil(e.Now() + 10*ms) // let the last gossip land everywhere
	check("after a burst")
}

// TestDormantGroupRecovers: a group that sits dormant still recovers
// from a transient fault. In each case one command is submitted to an
// idle group and must commit at every replica within 200 sim-ms (the
// worst of the 60 runs takes 40), and no stream may commit it twice:
//   - corrupted: one replica is Corrupted while the group is idle;
//   - far-future: one replica holds an entry 1000 slots above a gap;
//   - stalled: every fold stops on a decided batch ID whose contents no
//     replica knows, so only the stalled-fold NoOp rule keeps slots
//     deciding until the ID is forfeited.
func TestDormantGroupRecovers(t *testing.T) {
	const bound = 200 * ms
	faults := []struct {
		name   string
		strike func(bs []*BatchingReplica, rng *rand.Rand)
	}{
		{"corrupted", func(bs []*BatchingReplica, rng *rand.Rand) {
			bs[rng.Intn(len(bs))].Replica.Corrupt(rng)
		}},
		{"far-future", func(bs []*BatchingReplica, rng *rand.Rand) {
			b := bs[rng.Intn(len(bs))]
			b.adopt(SlotDecision{Slot: b.CurrentSlot() + 1000, Val: NoOp})
			b.syncCursor()
		}},
		{"stalled", func(bs []*BatchingReplica, rng *rand.Rand) {
			const ghost = Value(1 << 30) // no replica seals or learns this ID
			slot := bs[0].CurrentSlot()
			for _, b := range bs {
				b.adopt(SlotDecision{Slot: slot, Val: ghost})
				b.syncCursor()
			}
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				bs, e := buildStoreGroup(seed)
				rng := rand.New(rand.NewSource(seed * 17))
				for i := 0; i < 10; i++ {
					bs[i%len(bs)].Submit(Value(int64(i)))
				}
				for _, b := range bs {
					runUntilDecided(t, e, b, 10, 2000*ms)
				}
				e.RunUntil(e.Now() + 20*ms) // idle: every replica dormant
				f.strike(bs, rng)
				e.RunUntil(e.Now() + 20*ms)
				const cmd = Value(1000)
				bs[seed%int64(len(bs))].Submit(cmd)
				deadline := e.Now() + bound
				for !committedEverywhere(bs, cmd) {
					if e.Now() >= deadline {
						for _, b := range bs {
							t.Logf("%v next=%d open=%d", b, b.next, len(b.open))
						}
						t.Fatalf("seed=%d: command not committed everywhere within %d ms", seed, bound/ms)
					}
					e.RunUntil(e.Now() + ms)
				}
				for _, b := range bs {
					seen := make(map[Value]bool)
					for _, v := range b.Decided() {
						if seen[v] {
							t.Fatalf("seed=%d: replica %v committed %d twice", seed, b.ID(), v)
						}
						seen[v] = true
					}
				}
			}
		})
	}
}

// committedEverywhere reports whether every replica's stream holds cmd.
func committedEverywhere(bs []*BatchingReplica, cmd Value) bool {
	for _, b := range bs {
		if !slices.Contains(b.Decided(), cmd) {
			return false
		}
	}
	return true
}
