package smr

import (
	"math/rand"
	"testing"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// scanFrontier is the test oracle for the frontier cache: the largest
// and smallest slot found by walking the log map, which is how Frontier
// was computed before it was cached.
func scanFrontier(r *Replica) (max, min uint64, held bool) {
	for s := range r.log {
		if !held {
			max, min, held = s, s, true
			continue
		}
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	return max, min, held
}

// checkCache holds the cache to the oracle: Frontier is the scan's, and
// the low-water mark never overstates the smallest held slot (it may
// understate it, which only costs a prune scan).
func checkCache(t *testing.T, r *Replica, when string) {
	t.Helper()
	max, min, held := scanFrontier(r)
	if f, ok := r.Frontier(); f != max || ok != held {
		t.Fatalf("%s: Frontier() = %d,%v, map scan says %d,%v", when, f, ok, max, held)
	}
	if held && r.low > min {
		t.Fatalf("%s: low-water mark %d above the smallest held slot %d", when, r.low, min)
	}
}

// checkSynced holds what syncCursor derives from the cache to what the
// map says: the cursor sits one past the scanned frontier, nothing is
// retained below the gossip window (the low-water mark never skips a
// prune that was due), and the lookahead window is in slot order inside
// (cur, cur+depth).
func checkSynced(t *testing.T, r *Replica, when string) {
	t.Helper()
	checkCache(t, r, when)
	max, min, held := scanFrontier(r)
	want := uint64(0)
	if held {
		want = max + 1
	}
	if r.cur != want {
		t.Fatalf("%s: cursor %d, want %d (one past the scanned frontier)", when, r.cur, want)
	}
	if held && r.cur > GossipWindow && min < r.cur-GossipWindow {
		t.Fatalf("%s: slot %d retained below the window under cursor %d", when, min, r.cur)
	}
	prev := r.cur
	for _, a := range r.aux {
		if a.slot <= prev || a.slot >= r.cur+uint64(r.depth()) {
			t.Fatalf("%s: lookahead slots %v out of order or outside (%d, %d)",
				when, r.aux, r.cur, r.cur+uint64(r.depth()))
		}
		if _, done := r.log[a.slot]; done {
			t.Fatalf("%s: lookahead instance open for decided slot %d", when, a.slot)
		}
		prev = a.slot
	}
}

// TestFrontierCacheMatchesScan: after any interleaving of the log's
// writers — adopt near, below and far above the window, Corrupt with its
// far-future mints, held lookahead decisions committing — and of
// syncCursor and pipeline-depth changes, the cached frontier equals the
// brute-force scan of the map.
func TestFrontierCacheMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs, _, _ := build(3, nil, seed)
		r := rs[0]
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				f, _ := r.Frontier()
				var slot uint64
				switch rng.Intn(8) {
				case 0:
					slot = uint64(rng.Int63n(1 << 20)) // far-future mint
				case 1:
					slot = f - min(f, uint64(GossipWindow+rng.Intn(6))) // at or below the window's floor
				default:
					slot = f + 3 - min(f+3, uint64(rng.Intn(7))) // around the frontier
				}
				r.adopt(SlotDecision{Slot: slot, Round: uint64(rng.Intn(4)), Val: Value(rng.Intn(100))})
				checkCache(t, r, "adopt")
			case op < 6:
				r.Corrupt(rng)
				checkCache(t, r, "Corrupt")
			case op < 7:
				r.SetPipeline(1 + rng.Intn(4))
				checkSynced(t, r, "SetPipeline")
			case op < 8 && len(r.aux) > 0:
				// A lookahead decision, held until the cursor reaches it.
				in := r.aux[rng.Intn(len(r.aux))].in
				in.decided, in.decRound, in.decVal = true, uint64(rng.Intn(4)), Value(rng.Intn(100))
				r.syncCursor()
				checkSynced(t, r, "held decision")
			default:
				r.syncCursor()
				checkSynced(t, r, "syncCursor")
			}
		}
	}
}

// quietCtx is an async.Context that swallows sends, for stepping one
// replica by hand.
type quietCtx struct{ now async.Time }

func (c quietCtx) Now() async.Time { return c.now }
func (quietCtx) Send(proc.ID, any) {}
func (quietCtx) Broadcast(any)     {}
func (quietCtx) Rand() *rand.Rand  { return nil }

// TestScribbledFrontierCacheLastsOneTick: the cache is redundant state,
// so a systemic failure may write anything into it. Whatever it wrote,
// one OnTick later the cache is the map's again and the replica is on
// the cursor an unscribbled twin of it is on — the group's cursor.
func TestScribbledFrontierCacheLastsOneTick(t *testing.T) {
	scribbles := []struct {
		name string
		do   func(r *Replica)
	}{
		{"frontier far ahead", func(r *Replica) { r.max = 1 << 39 }},
		{"frontier behind", func(r *Replica) { r.max = 0 }},
		{"low-water mark too high", func(r *Replica) {
			// A slot the cache does not know about, below the window: only
			// a re-derived low-water mark gets it pruned.
			r.log[0] = entry{val: 1}
			r.low = 1 << 39
		}},
		{"both", func(r *Replica) { r.max, r.low = 1<<20, 1<<39 }},
	}
	for _, sc := range scribbles {
		t.Run(sc.name, func(t *testing.T) {
			// Two identical groups; only one replica of the first is scribbled.
			settled := func() ([]*Replica, *async.Engine) {
				rs, e, _ := build(3, nil, 5)
				for _, r := range rs {
					r.SetPipeline(2)
				}
				e.RunUntil(300 * ms)
				return rs, e
			}
			rs, e := settled()
			twin, _ := settled()
			r := rs[0]
			if f, _ := r.Frontier(); f < GossipWindow+2 {
				t.Fatalf("log too short (%d) to exercise the window", f)
			}
			if peer := rs[1].CurrentSlot(); r.CurrentSlot()+1 < peer || peer+1 < r.CurrentSlot() {
				t.Fatalf("replicas not in step before the scribble: cursors %d and %d", r.CurrentSlot(), peer)
			}
			sc.do(r)
			r.OnTick(quietCtx{now: e.Now()})
			twin[0].OnTick(quietCtx{now: e.Now()})
			checkSynced(t, r, "one tick after the scribble")
			if got, want := r.CurrentSlot(), twin[0].CurrentSlot(); got != want {
				t.Fatalf("cursor %d one tick after the scribble, unscribbled twin is on %d", got, want)
			}
			if got, want := r.LogLen(), twin[0].LogLen(); got != want {
				t.Fatalf("log holds %d slots one tick after the scribble, unscribbled twin %d", got, want)
			}

			// And in the engine, where messages can land between the
			// scribble and the tick: the replica rejoins the group.
			sc.do(r)
			e.RunFor(20 * ms)
			checkCache(t, r, "20ms after the scribble")
			group := minFrontier(rs[1:], proc.Universe(3))
			if got, _ := r.Frontier(); got+2 < group {
				t.Fatalf("frontier %d trails the group's %d 20ms after the scribble", got, group)
			}
			verifyLogs(t, rs, proc.Universe(3), 3, nil, false)
		})
	}
}
