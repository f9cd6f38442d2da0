package smr

import (
	"fmt"
	"math/rand"
	"testing"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

const ms = async.Millisecond

func weakFor(n int, crashAt map[proc.ID]async.Time, seed int64) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{
		N: n, CrashAt: crashAt,
		AccuracyAt: 30 * ms, Lag: 3 * ms,
		NoiseP: 0.2, SlanderP: 0.1, Seed: seed,
	}
}

func cmdsFor(seed int64) CommandSource {
	return func(p proc.ID, slot uint64) Value {
		x := uint64(seed)
		x ^= uint64(int64(p)+1) * 0x9e3779b97f4a7c15
		x ^= (slot + 1) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
		return Value(int64(x % 1000))
	}
}

func build(n int, crashAt map[proc.ID]async.Time, seed int64) ([]*Replica, *async.Engine, CommandSource) {
	cmds := cmdsFor(seed)
	rs, aps := NewReplicas(n, cmds, weakFor(n, crashAt, seed))
	e := async.MustNewEngine(aps, async.Config{
		Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms, CrashAt: crashAt,
	})
	return rs, e, cmds
}

// verifyLogs checks the repeated-consensus correctness notion: no two
// correct replicas hold conflicting values for any slot, and (optionally)
// every value is some replica's command for that slot.
func verifyLogs(t *testing.T, rs []*Replica, correct proc.Set, n int,
	cmds CommandSource, checkValidity bool) {
	t.Helper()
	seen := make(map[uint64]Value)
	for _, r := range rs {
		if !correct.Has(r.ID()) {
			continue
		}
		for slot := r.log.base; slot < r.log.base+ringSize; slot++ {
			v, ok := r.Get(slot)
			if !ok {
				continue
			}
			if prev, ok := seen[slot]; ok && prev != v {
				t.Fatalf("slot %d: conflicting values %d and %d", slot, prev, v)
			}
			seen[slot] = v
			if checkValidity {
				valid := false
				for q := 0; q < n; q++ {
					if cmds(proc.ID(q), slot) == v {
						valid = true
						break
					}
				}
				if !valid {
					t.Fatalf("slot %d: value %d is no replica's command", slot, v)
				}
			}
		}
	}
}

func minFrontier(rs []*Replica, correct proc.Set) uint64 {
	first := true
	var min uint64
	for _, r := range rs {
		if !correct.Has(r.ID()) {
			continue
		}
		f, ok := r.Frontier()
		if !ok {
			return 0
		}
		if first || f < min {
			min, first = f, false
		}
	}
	return min
}

// TestCleanRunBuildsIdenticalLogs: the repeated consensus decides slot
// after slot, identically and validly, at every correct replica.
func TestCleanRunBuildsIdenticalLogs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rs, e, cmds := build(4, nil, seed)
		e.RunUntil(800 * ms)
		correct := proc.Universe(4)
		verifyLogs(t, rs, correct, 4, cmds, true)
		if f := minFrontier(rs, correct); f < 5 {
			t.Fatalf("seed=%d: frontier only %d after 800ms; no progress", seed, f)
		}
		// All replicas hold the same retained window on a clean run.
		f0, _ := rs[0].Frontier()
		lo := uint64(0)
		if f0 > GossipWindow {
			lo = f0 - GossipWindow
		}
		for slot := lo; slot+2 < f0; slot++ {
			v0, ok0 := rs[0].Get(slot)
			for _, r := range rs[1:] {
				v, ok := r.Get(slot)
				if ok0 && ok && v != v0 {
					t.Fatalf("seed=%d slot=%d: %d vs %d", seed, slot, v, v0)
				}
			}
		}
	}
}

// TestProgressWithCrashes: f < n/2 crashes do not stop the log.
func TestProgressWithCrashes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		crash := map[proc.ID]async.Time{3: 50 * ms, 4: 90 * ms}
		rs, e, cmds := build(5, crash, seed)
		e.RunUntil(400 * ms)
		before := minFrontier(rs, e.Correct())
		e.RunUntil(900 * ms)
		after := minFrontier(rs, e.Correct())
		if after <= before {
			t.Fatalf("seed=%d: frontier stalled at %d after the crashes", seed, after)
		}
		verifyLogs(t, rs, e.Correct(), 5, cmds, true)
	}
}

// TestCorruptedStartRecovers is the headline: every replica's detector,
// instance, cursor, and log are corrupted — including far-future minted
// slots — and the log still advances with per-slot agreement.
func TestCorruptedStartRecovers(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		crash := map[proc.ID]async.Time{2: 40 * ms}
		rs, e, cmds := build(5, crash, seed)
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
		// Agreement (not validity: corrupted slots may carry minted values).
		verifyLogs(t, rs, e.Correct(), 5, cmds, false)
		_ = cmds
	}
}

// TestMidRunCorruption: corruption strikes a working log; the suffix after
// re-stabilization is again agreed and advancing.
func TestMidRunCorruption(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rs, e, cmds := build(4, nil, seed)
		e.RunUntil(300 * ms)
		rng := rand.New(rand.NewSource(seed))
		for _, r := range rs {
			r.Corrupt(rng)
		}
		e.RunUntil(1200 * ms)
		verifyLogs(t, rs, proc.Universe(4), 4, cmds, false)
		if f := minFrontier(rs, proc.Universe(4)); f < 5 {
			t.Fatalf("seed=%d: frontier %d; log did not recover", seed, f)
		}
	}
}

// TestDerivedCursorSurvivesCorruption: a corrupted cursor with a clean log
// is recomputed on the next step.
func TestDerivedCursorSurvivesCorruption(t *testing.T) {
	rs, e, _ := build(3, nil, 5)
	e.RunUntil(300 * ms)
	f, ok := rs[0].Frontier()
	if !ok {
		t.Fatal("no progress")
	}
	rs[0].cur = 1 << 35 // corrupt only the cursor
	rs[0].syncCursor()
	if rs[0].CurrentSlot() != f+1 {
		t.Fatalf("cursor = %d, want %d (derived from log)", rs[0].CurrentSlot(), f+1)
	}
}

// TestWindowRetentionAndPruning: the retained log is exactly the recent
// window — old slots are pruned, recent ones are present at everyone.
func TestWindowRetentionAndPruning(t *testing.T) {
	rs, e, _ := build(3, nil, 7)
	e.RunUntil(900 * ms)
	f := minFrontier(rs, proc.Universe(3))
	if f < GossipWindow+4 {
		t.Skipf("log too short (%d) to exercise the window", f)
	}
	for _, r := range rs {
		if _, ok := r.Get(0); ok {
			t.Errorf("%v retained slot 0 beyond the window", r.ID())
		}
		if r.LogLen() > GossipWindow+1 {
			t.Errorf("%v retains %d slots, window is %d", r.ID(), r.LogLen(), GossipWindow)
		}
		rf, _ := r.Frontier()
		if rf+2 < f {
			continue
		}
		if _, ok := r.Get(rf); !ok {
			t.Errorf("%v missing its own frontier", r.ID())
		}
	}
}

func TestAccessors(t *testing.T) {
	rs, _, _ := build(3, nil, 1)
	r := rs[0]
	if r.ID() != 0 || r.CurrentSlot() != 0 || r.LogLen() != 0 {
		t.Error("fresh replica accessors wrong")
	}
	if _, ok := r.Get(0); ok {
		t.Error("empty log has no slot 0")
	}
	if _, ok := r.Frontier(); ok {
		t.Error("empty log has no frontier")
	}
	if r.Suspects().IsZero() {
		t.Error("Suspects nil")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
	r.adopt(SlotDecision{Slot: 3, Round: 1, Val: 9})
	if v, ok := r.Get(3); !ok || v != 9 {
		t.Error("adopt failed")
	}
	// Lattice: lower round does not overwrite.
	r.adopt(SlotDecision{Slot: 3, Round: 0, Val: 1})
	if v, _ := r.Get(3); v != 9 {
		t.Error("lattice violated")
	}
	// Slots 0..2 are missing under slot 3: the cursor stays on the first.
	r.syncCursor()
	if r.CurrentSlot() != 0 {
		t.Errorf("cursor = %d, want 0 (the first gap)", r.CurrentSlot())
	}
	if _, ok := r.Frontier(); ok {
		t.Error("a log with slot 0 missing has no frontier")
	}
	for s := uint64(0); s < 3; s++ {
		r.adopt(SlotDecision{Slot: s, Round: 1, Val: 9})
	}
	r.syncCursor()
	if f, ok := r.Frontier(); r.CurrentSlot() != 4 || f != 3 || !ok {
		t.Errorf("cursor = %d, frontier = %d,%v; want 4 and 3", r.CurrentSlot(), f, ok)
	}
}

// TestLogGossipAdoption: receiving gossip merges entries and advances the
// cursor past them.
func TestLogGossipAdoption(t *testing.T) {
	rs, _, _ := build(3, nil, 2)
	r := rs[1]
	r.OnMessage(nil, 0, LogGossip{Entries: []SlotDecision{
		{Slot: 0, Round: 2, Val: 10},
		{Slot: 1, Round: 3, Val: 20},
	}})
	if r.CurrentSlot() != 2 {
		t.Fatalf("cursor = %d, want 2", r.CurrentSlot())
	}
	if v, _ := r.Get(1); v != 20 {
		t.Error("gossip entry lost")
	}
}

// TestHigherRoundAckPullsInstanceForward: round agreement (§3 mechanism
// 2) reads the round on every message kind. An ack from a round ahead
// moves the commit instance to that round, as a round announcement does.
func TestHigherRoundAckPullsInstanceForward(t *testing.T) {
	rs, _, _ := build(3, nil, 1)
	r := rs[0]
	from := r.at(r.cur).Round()
	r.OnMessage(nil, 1, SlotMsg{Slot: r.cur, Inner: ctcons.AckMsg{Round: from + 5}})
	if got := r.at(r.cur).Round(); got != from+5 {
		t.Fatalf("instance round = %d after an ack for round %d, want %d", got, from+5, from+5)
	}
}

// TestRoundChangeAllocatesNothing: abandoning a round clears the
// instance's per-round state in place. A replica pulled forward round
// after round, by announcements and by estimates it coordinates,
// allocates nothing.
func TestRoundChangeAllocatesNothing(t *testing.T) {
	rs, _, _ := build(3, nil, 1)
	r := rs[0]
	const runs = 100
	// AllocsPerRun adds one warm-up call; every call delivers one pair.
	msgs := make([][2]any, runs+1)
	for i := range msgs {
		k := uint64(i)
		msgs[i] = [2]any{
			SlotMsg{Slot: r.CurrentSlot(), Inner: ctcons.RoundMsg{Round: 3*k + 1}},
			SlotMsg{Slot: r.CurrentSlot(), Inner: ctcons.EstimateMsg{Round: 3*k + 3, Val: 7, TS: 1}},
		}
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		r.OnMessage(nil, 1, msgs[i][0])
		r.OnMessage(nil, 1, msgs[i][1])
		i++
	})
	if avg != 0 {
		t.Errorf("%v allocations per pair of round changes, want 0", avg)
	}
	if got, want := r.at(r.cur).Round(), uint64(3*runs+3); got != want {
		t.Errorf("instance round = %d, want %d", got, want)
	}
}

func ExampleReplica() {
	cmds := func(p proc.ID, slot uint64) Value { return Value(int64(slot)*10 + int64(p)) }
	rs, aps := NewReplicas(3, cmds, &detector.SimulatedWeak{
		N: 3, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: 1,
	})
	e := async.MustNewEngine(aps, async.Config{
		Seed: 1, TickEvery: ms, MinDelay: ms, MaxDelay: 2 * ms,
	})
	e.RunUntil(200 * ms)
	v0, _ := rs[0].Get(0)
	v1, _ := rs[1].Get(0)
	fmt.Println("slot 0 agreed:", v0 == v1)
	// Output:
	// slot 0 agreed: true
}
