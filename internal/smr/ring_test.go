package smr

import (
	"math/rand"
	"testing"

	"ftss/internal/detector"
	"ftss/internal/proc"
)

// mapLog is the test oracle for the ring: the same log rule over an
// unbounded map. The cursor is the first slot missing from the top
// GossipWindow, (max−GossipWindow, max], or max+1 if none is; syncing
// forgets every slot below cursor−GossipWindow.
type mapLog map[uint64]entry

func (m mapLog) adopt(d SlotDecision) {
	if e, ok := m[d.Slot]; !ok || d.Round > e.round || (d.Round == e.round && d.Val > e.val) {
		m[d.Slot] = entry{round: d.Round, val: d.Val}
	}
}

func (m mapLog) cursor() uint64 {
	if len(m) == 0 {
		return 0
	}
	var top uint64
	for s := range m {
		top = max(top, s)
	}
	for s := top + 1 - min(top+1, GossipWindow); s <= top; s++ {
		if _, ok := m[s]; !ok {
			return s
		}
	}
	return top + 1
}

func (m mapLog) sync() {
	cur := m.cursor()
	for s := range m {
		if s+GossipWindow < cur {
			delete(m, s)
		}
	}
}

// corrupt replays Replica.Corrupt's draws on rng and makes its log
// writes: detector records, cursor, instance, then up to three poisoned
// slots.
func (m mapLog) corrupt(rng *rand.Rand, n int) {
	detector.NewStrongCore(0, n, nil).Corrupt(rng)
	rng.Int63n(MaxCorruptSlot)
	rng.Int63n(1 << 20)
	rng.Int63n(MaxCorruptSlot)
	rng.Int63n(MaxCorruptSlot)
	rng.Intn(2)
	rng.Int63n(1 << 20)
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		slot := uint64(rng.Int63n(12))
		if rng.Intn(4) == 0 {
			slot = uint64(rng.Int63n(1 << 20))
		}
		m[slot] = entry{round: uint64(rng.Int63n(1 << 20)), val: Value(rng.Int63n(1 << 20))}
	}
}

// checkModel holds a synced replica to the map model: the same slots
// with the same values, the same cursor and frontier, and a lookahead
// window in slot order inside (cur, cur+pipe) with no instance open for
// a decided slot.
func checkModel(t *testing.T, r *Replica, m mapLog, when string) {
	t.Helper()
	cur := m.cursor()
	if r.CurrentSlot() != cur {
		t.Fatalf("%s: cursor %d, map model says %d", when, r.CurrentSlot(), cur)
	}
	if f, ok := r.Frontier(); f != cur-1 || ok != (cur > 0) {
		t.Fatalf("%s: Frontier() = %d,%v, map model's cursor is %d", when, f, ok, cur)
	}
	if r.LogLen() != len(m) {
		t.Fatalf("%s: LogLen() = %d, map model holds %d", when, r.LogLen(), len(m))
	}
	for s, e := range m {
		if v, ok := r.Get(s); !ok || v != e.val {
			t.Fatalf("%s: Get(%d) = %d,%v, map model holds %d", when, s, v, ok, e.val)
		}
	}
	prev := r.cur
	for _, a := range r.aux {
		if a.slot <= prev || a.slot >= r.cur+uint64(max(r.pipe, 1)) {
			t.Fatalf("%s: lookahead slots %v out of order or outside (%d, %d)",
				when, r.aux, r.cur, r.cur+uint64(max(r.pipe, 1)))
		}
		if _, done := m[a.slot]; done {
			t.Fatalf("%s: lookahead instance open for decided slot %d", when, a.slot)
		}
		prev = a.slot
	}
}

// TestRingMatchesMapModel: after any interleaving of the log's writers —
// adopt near, below and far above the window, Corrupt with its far-future
// mints — and of syncCursor and pipeline-depth changes, the ring holds
// what the unbounded map model holds and derives the same cursor.
func TestRingMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs, _, _ := build(3, nil, seed)
		r, m := rs[0], mapLog{}
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				top := r.CurrentSlot() + GossipWindow
				var slot uint64
				switch rng.Intn(8) {
				case 0:
					slot = uint64(rng.Int63n(1 << 20)) // far-future mint
				case 1:
					slot = top - min(top, uint64(2*GossipWindow+rng.Intn(6))) // at or below the window's floor
				default:
					slot = top - min(top, uint64(rng.Intn(2*GossipWindow))) // inside the span
				}
				d := SlotDecision{Slot: slot, Round: uint64(rng.Intn(4)), Val: Value(rng.Intn(100))}
				r.adopt(d)
				m.adopt(d)
				continue
			case op < 7:
				s := rng.Int63()
				r.Corrupt(rand.New(rand.NewSource(s)))
				m.corrupt(rand.New(rand.NewSource(s)), 3)
				continue
			case op < 8:
				r.SetPipeline(1 + rng.Intn(4))
			default:
				r.syncCursor()
			}
			m.sync()
			checkModel(t, r, m, "syncCursor")
		}
	}
}

// TestScribbledRingRecovers: a systemic failure may write anything into
// the ring's base. Whatever it wrote, the scribbled replica rejoins its
// group, the group's frontier keeps advancing, and every slot two
// replicas hold agrees. Where the scribble leaves nothing held at or
// above the group's window, one gossip from a peer puts the replica back
// on the peer's cursor at once; a far entry instead spreads like a
// far-future mint.
func TestScribbledRingRecovers(t *testing.T) {
	for _, sc := range []struct {
		name   string
		do     func(g *ring)
		rejoin bool
	}{
		{"far base, nothing held", func(g *ring) { g.base, g.held = 1<<39, 0 }, true},
		{"far base, one entry", func(g *ring) { g.base, g.held = 1<<39, 1 }, false},
		{"base 0", func(g *ring) { g.base = 0 }, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rs, e, _ := build(3, nil, 5)
			for _, r := range rs {
				r.SetPipeline(2)
			}
			e.RunUntil(300 * ms)
			all := proc.Universe(3)
			before := minFrontier(rs, all)
			if before < 2*ringSize {
				t.Fatalf("log too short (%d) to exercise the ring", before)
			}
			sc.do(&rs[0].log)
			if sc.rejoin {
				peer := &rs[1].log
				rs[0].OnMessage(nil, 1, LogGossip{Entries: peer.window(peer.end())})
				if got, want := rs[0].CurrentSlot(), rs[1].CurrentSlot(); got != want {
					t.Fatalf("one gossip after the scribble the cursor is %d, the peer's %d", got, want)
				}
			}
			for i := 0; i < 3; i++ {
				e.RunFor(40 * ms)
				f := minFrontier(rs, all)
				if f <= before {
					t.Fatalf("after %dms the group frontier is %d, was %d", 40*(i+1), f, before)
				}
				if got, _ := rs[0].Frontier(); got+2 < minFrontier(rs[1:], all) {
					t.Fatalf("scribbled replica's frontier %d trails its peers' %d", got, minFrontier(rs[1:], all))
				}
				verifyLogs(t, rs, all, 3, nil, false)
				before = f
			}
		})
	}
}
