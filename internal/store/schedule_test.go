package store

import (
	"math/rand"
	"testing"

	"ftss/internal/sim/async"
)

// TestFaultFreeVerdictsHold: with nothing wrong, the store's own
// Definition 2.4 verdict must hold however the shard is driven. Several
// ops in flight per DriveAll is the shape that let gossip adoption jump
// a replica's slot cursor past a missing slot, a hash divergence with no
// mark to excuse it.
func TestFaultFreeVerdictsHold(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		st := New(Config{Shards: 1, Seed: seed})
		sh := st.Shard(0)
		ops := seededOps(seed, 400, 16)
		for i := 0; i < len(ops); i += 4 {
			for _, op := range ops[i : i+4] {
				sh.Submit(op)
			}
			if err := sh.DriveAll(); err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
		}
		if err := sh.Verdict(); err != nil {
			t.Errorf("seed=%d: fault-free verdict failed: %v", seed, err)
		}
	}
}

// TestRandomScheduleVerdictsHold: under periodic corruption, a random
// drive schedule (several ops in flight, shards drained in random
// subsets) must leave every shard's verdict passing, as the
// drain-everything schedule of TestStoreVerdictsUnderCorruption does.
func TestRandomScheduleVerdictsHold(t *testing.T) {
	for sched := int64(1); sched <= 6; sched++ {
		rng := rand.New(rand.NewSource(sched))
		st := New(Config{Shards: 8, Seed: 11, CorruptEvery: 60 * async.Millisecond})
		ops := seededOps(sched, 600, 64)
		for i := 0; i < len(ops); {
			n := 1
			if rng.Intn(10) < 4 {
				n = 2 + rng.Intn(3)
			}
			for ; n > 0 && i < len(ops); n, i = n-1, i+1 {
				st.Submit(ops[i])
			}
			for s := 0; s < st.NumShards(); s++ {
				if rng.Intn(2) == 0 {
					if err := st.Shard(s).DriveAll(); err != nil {
						t.Fatalf("schedule %d: shard %d: %v", sched, s, err)
					}
				}
			}
		}
		if err := st.Drive(1); err != nil {
			t.Fatalf("schedule %d: %v", sched, err)
		}
		for s, err := range st.Verdicts() {
			if err != nil {
				t.Errorf("schedule %d: shard %d verdict failed: %v", sched, s, err)
			}
		}
	}
}
