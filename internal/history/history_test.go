package history

import (
	"testing"

	"ftss/internal/failure"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// chatter broadcasts a constant every round.
type chatter struct {
	id     proc.ID
	rounds uint64
}

func (c *chatter) ID() proc.ID              { return c.id }
func (c *chatter) StartRound() any          { return "hi" }
func (c *chatter) EndRound([]round.Message) { c.rounds++ }
func (c *chatter) Snapshot() round.Snapshot {
	return round.Snapshot{Clock: c.rounds, State: c.rounds}
}

func chatters(n int) []round.Process {
	ps := make([]round.Process, n)
	for i := range ps {
		ps[i] = &chatter{id: proc.ID(i)}
	}
	return ps
}

func runRecorded(t *testing.T, n int, adv failure.Adversary, rounds int) *History {
	t.Helper()
	h, e := recorded(n, adv)
	e.Run(rounds)
	return h
}

// recorded builds an engine of n chatters with a history attached, for
// tests that step it themselves.
func recorded(n int, adv failure.Adversary) (*History, *round.Engine) {
	var faulty proc.Set
	if adv != nil {
		faulty = adv.Faulty()
	}
	h := New(n, faulty)
	e := round.MustNewEngine(chatters(n), adv)
	e.Observe(h)
	return h, e
}

// edgeRecorder is a round.Observer keeping who heard whom: from[k-1][q] is
// the set of senders whose round-k broadcast was delivered to q.
type edgeRecorder struct {
	from []map[proc.ID]proc.Set
}

func (er *edgeRecorder) ObserveRound(o round.Observation) {
	row := make(map[proc.ID]proc.Set, len(o.Delivered))
	for q, msgs := range o.Delivered {
		senders := proc.NewSet()
		for _, m := range msgs {
			senders.Add(m.From)
		}
		row[q] = senders
	}
	er.from = append(er.from, row)
}

// naiveInfluence recomputes q's influence set over the t-prefix by search
// over the event grid, without the incremental caches: the oracle for
// them.
//
// Nodes are (process, prefix length); edges are program order
// (p,k)→(p,k+1), and message delivery (s,k-1)→(q,k) for every message
// s→q delivered in round k. The walk runs backwards from (q, t).
func (er *edgeRecorder) naiveInfluence(t int, q proc.ID) proc.Set {
	type node struct {
		p proc.ID
		k int
	}
	seen := map[node]bool{{q, t}: true}
	stack := []node{{q, t}}
	result := proc.NewSet()
	visit := func(nd node) {
		if !seen[nd] {
			seen[nd] = true
			stack = append(stack, nd)
		}
	}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		result.Add(nd.p)
		if nd.k == 0 {
			continue
		}
		// Program order: p's state at k-1 precedes its state at k. (If p
		// was crashed in round k it had no state transition, but walking
		// back through it is harmless: a crashed process receives nothing.)
		visit(node{nd.p, nd.k - 1})
		er.from[nd.k-1][nd.p].ForEach(func(s proc.ID) {
			visit(node{s, nd.k - 1})
		})
	}
	return result
}

func TestEmptyHistoryCoterie(t *testing.T) {
	h := New(3, proc.Set{})
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.CoterieAt(0).Len() != 0 {
		t.Errorf("empty-prefix coterie of n=3 = %v, want empty", h.CoterieAt(0))
	}
	h1 := New(1, proc.Set{})
	if !h1.CoterieAt(0).Equal(proc.NewSet(0)) {
		t.Errorf("n=1 empty-prefix coterie = %v, want {p0}", h1.CoterieAt(0))
	}
}

func TestCoterieFullAfterOneCleanRound(t *testing.T) {
	h := runRecorded(t, 4, nil, 3)
	if !h.CoterieAt(1).Equal(proc.Universe(4)) {
		t.Errorf("coterie after 1 clean round = %v, want all", h.CoterieAt(1))
	}
	if !h.Coterie().Equal(proc.Universe(4)) {
		t.Errorf("final coterie = %v", h.Coterie())
	}
	if got := h.DestabilizingRounds(); len(got) != 1 || got[0] != 1 {
		t.Errorf("destabilizing rounds = %v, want [1]", got)
	}
}

func TestInfluenceBasic(t *testing.T) {
	h, e := recorded(3, nil)
	// Before any round, influence is just self.
	if !h.Influence(1).Equal(proc.NewSet(1)) {
		t.Errorf("Influence(1) before round 1 = %v", h.Influence(1))
	}
	// After one full-delivery round, everyone influences everyone.
	for r := 1; r <= 2; r++ {
		e.Step()
		if !h.Influence(1).Equal(proc.Universe(3)) {
			t.Errorf("Influence(1) after round %d = %v", r, h.Influence(1))
		}
	}
}

func TestSilencedProcessOutsideCoterie(t *testing.T) {
	// p0 (faulty) is silent toward p1 and deaf to p1 for rounds 1..3 but
	// talks to p2. p0 still reaches p1 transitively through p2 in round 2.
	adv := failure.NewScripted(0).SilenceBetween(0, 1, 1, 3)
	h, e := recorded(3, adv)
	e.Run(2)
	if !h.Influence(1).Has(0) {
		t.Error("p0 should influence p1 transitively by round 2")
	}
	e.Run(2)

	// Round 1: p0 reaches p2 and itself but not p1 → p0 not in coterie.
	if h.CoterieAt(1).Has(0) {
		t.Error("p0 should not be in the coterie after round 1")
	}
	if !h.CoterieAt(1).Has(2) || !h.CoterieAt(1).Has(1) {
		t.Errorf("coterie(1) = %v, want p1,p2 present", h.CoterieAt(1))
	}
	// Round 2: p2 relays, so p0 →_H p1 via p2; p0 enters the coterie.
	if !h.CoterieAt(2).Has(0) {
		t.Error("p0 should enter the coterie in round 2 (transitive influence)")
	}
}

func TestTotalSilenceKeepsProcessOut(t *testing.T) {
	// Two processes, mutually silent; p0 is faulty. p0 never influences
	// the sole correct process p1, so the coterie is {p1} from round 1 on
	// and never changes again — exactly the "coterie remains constant"
	// setup of the Theorem 2 proof.
	adv := failure.NewScripted(0).SilenceBetween(0, 1, 1, 10)
	h := runRecorded(t, 2, adv, 10)
	if h.CoterieAt(0).Len() != 0 {
		t.Errorf("coterie(0) = %v, want empty", h.CoterieAt(0))
	}
	for tt := 1; tt <= 10; tt++ {
		if !h.CoterieAt(tt).Equal(proc.NewSet(1)) {
			t.Fatalf("coterie(%d) = %v, want {p1}", tt, h.CoterieAt(tt))
		}
	}
	if got := h.DestabilizingRounds(); len(got) != 1 || got[0] != 1 {
		t.Errorf("destabilizing rounds = %v, want [1]", got)
	}
}

func TestFaultyUpToGrowth(t *testing.T) {
	adv := failure.NewScripted(1).DropSendAt(3, 1, 0)
	h := runRecorded(t, 2, adv, 5)
	for tt := 0; tt <= 2; tt++ {
		if h.FaultyUpTo(tt).Len() != 0 {
			t.Errorf("F_%d = %v, want empty (deviation only at round 3)", tt, h.FaultyUpTo(tt))
		}
	}
	for tt := 3; tt <= 5; tt++ {
		if !h.FaultyUpTo(tt).Equal(proc.NewSet(1)) {
			t.Errorf("F_%d = %v, want {p1}", tt, h.FaultyUpTo(tt))
		}
	}
	if !h.Faulty().Equal(proc.NewSet(1)) {
		t.Errorf("Faulty() = %v", h.Faulty())
	}
}

func TestDesignatedButNeverDeviatingIsCorrect(t *testing.T) {
	adv := failure.NewScripted(1) // designated faulty, no scripted deviations
	h := runRecorded(t, 3, adv, 4)
	if h.Faulty().Len() != 0 {
		t.Errorf("Faulty = %v, want empty: designation alone is not deviation", h.Faulty())
	}
	if !h.Designated().Equal(proc.NewSet(1)) {
		t.Errorf("Designated = %v", h.Designated())
	}
}

func TestCoterieMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(0, 1), 0.4, seed, 15)
		h := runRecorded(t, 5, adv, 20)
		for tt := 1; tt <= h.Len(); tt++ {
			if !h.CoterieAt(tt - 1).Subset(h.CoterieAt(tt)) {
				t.Fatalf("seed %d: coterie shrank at t=%d: %v → %v",
					seed, tt, h.CoterieAt(tt-1), h.CoterieAt(tt))
			}
		}
	}
}

// TestIncrementalMatchesNaiveOracle holds the incremental influence sets
// to the oracle at every prefix, read from the append hook while that
// prefix is the whole history.
func TestIncrementalMatchesNaiveOracle(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(0, 2), 0.5, seed, 10)
		h := New(4, adv.Faulty())
		edges := &edgeRecorder{}
		check := func(tt int) {
			for q := proc.ID(0); q < 4; q++ {
				inc := h.Influence(q)
				naive := edges.naiveInfluence(tt, q)
				if !inc.Equal(naive) {
					t.Fatalf("seed %d t=%d q=%v: incremental %v != naive %v",
						seed, tt, q, inc, naive)
				}
			}
		}
		check(0)
		h.OnAppend(check)
		e := round.MustNewEngine(chatters(4), adv)
		e.Observe(edges) // first: the hook walks this round's edges
		e.Observe(h)
		e.Run(12)
	}
}

func TestStableSegments(t *testing.T) {
	// p0 silent to everyone for rounds 1..2, then clean: coterie goes
	// {} (n≥2) → all-minus-p0 after round 1 → all after round 3.
	adv := failure.NewScripted(0).
		SilenceBetween(0, 1, 1, 2).
		SilenceBetween(0, 2, 1, 2)
	h := runRecorded(t, 3, adv, 6)

	segs := h.StableSegments()
	if len(segs) != 3 {
		t.Fatalf("segments = %+v, want 3", segs)
	}
	if segs[0].Start != 0 || segs[0].End != 0 || segs[0].Coterie.Len() != 0 {
		t.Errorf("seg0 = %+v", segs[0])
	}
	if segs[1].Start != 1 || segs[1].End != 2 || !segs[1].Coterie.Equal(proc.NewSet(1, 2)) {
		t.Errorf("seg1 = %+v", segs[1])
	}
	if segs[2].Start != 3 || segs[2].End != 6 || !segs[2].Coterie.Equal(proc.Universe(3)) {
		t.Errorf("seg2 = %+v", segs[2])
	}
	if got := h.DestabilizingRounds(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("destabilizing = %v, want [1 3]", got)
	}
}

func TestClockAndSnapshotAccessors(t *testing.T) {
	h := runRecorded(t, 2, nil, 3)
	c, ok := h.ClockAt(1, 0)
	if !ok || c != 0 {
		t.Errorf("ClockAt(1,0) = %d,%v; want 0,true", c, ok)
	}
	c, ok = h.ClockAt(3, 1)
	if !ok || c != 2 {
		t.Errorf("ClockAt(3,1) = %d,%v; want 2,true", c, ok)
	}
	snap, ok := h.SnapshotAt(2, 0)
	if !ok || snap.Clock != 1 {
		t.Errorf("SnapshotAt(2,0) = %+v,%v", snap, ok)
	}
}

// TestSnapshotAtEndKeepsPreCorruptionState: an engine round records its
// own end row, so a systemic failure striking between two rounds shows
// as SnapshotAtEnd(r) differing from SnapshotAt(r+1), and round r's end
// state stays what the protocol left.
func TestSnapshotAtEndKeepsPreCorruptionState(t *testing.T) {
	ps := chatters(2)
	h := New(2, proc.Set{})
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Step()
	ps[0].(*chatter).rounds = 40 // corrupt p0's clock between rounds 1 and 2
	h.MarkSystemicFailure()
	e.Step()
	for _, c := range []struct {
		r    int
		end  bool
		want uint64
	}{{1, false, 0}, {1, true, 1}, {2, false, 40}, {2, true, 41}} {
		get := h.SnapshotAt
		if c.end {
			get = h.SnapshotAtEnd
		}
		if snap, ok := get(c.r, 0); !ok || snap.Clock != c.want {
			t.Errorf("round %d (end %v): p0 clock %d,%v; want %d", c.r, c.end, snap.Clock, ok, c.want)
		}
	}
}

func TestClockAtCrashedProcess(t *testing.T) {
	adv := failure.NewScripted(1).CrashAt(1, 2)
	h := runRecorded(t, 2, adv, 3)
	if _, ok := h.ClockAt(3, 1); ok {
		t.Error("crashed process should have no clock")
	}
	if _, ok := h.ClockAt(1, 1); !ok {
		t.Error("pre-crash clock should exist")
	}
}

func TestCrashedInfluenceFrozen(t *testing.T) {
	adv := failure.NewScripted(0).CrashAt(0, 2)
	h, e := recorded(3, adv)
	// p0 spoke in round 1, so it influences everyone; after its crash its
	// influence set stops growing but others keep growing (trivially full
	// here).
	for r := 1; r <= 5; r++ {
		e.Step()
		if got := h.Influence(0); !got.Equal(proc.Universe(3)) {
			t.Errorf("Influence(0) after round %d = %v (should be full, then frozen)", r, got)
		}
	}
	// Crashed p0 is faulty, so the coterie quantifies only over p1,p2.
	if !h.Coterie().Equal(proc.Universe(3)) {
		t.Errorf("final coterie = %v", h.Coterie())
	}
}

func TestRoundAccessors(t *testing.T) {
	h := runRecorded(t, 2, nil, 2)
	if !h.AliveAt(2).Equal(proc.Universe(2)) {
		t.Errorf("AliveAt(2) = %v", h.AliveAt(2))
	}
	if h.DeviatedAt(2).Len() != 0 {
		t.Errorf("DeviatedAt(2) = %v", h.DeviatedAt(2))
	}
	if h.N() != 2 {
		t.Errorf("N = %d", h.N())
	}
}

// TestAliveSetsSharedNotAliased: rounds with an unchanged alive set share
// one copy, and no round's set aliases the caller's, which the caller
// may rewrite for the next observation.
func TestAliveSetsSharedNotAliased(t *testing.T) {
	h := New(3, proc.Set{})
	up := proc.Universe(3)
	want := []proc.Set{proc.NewSet(0, 1, 2), proc.NewSet(0, 1, 2), proc.NewSet(0, 1), proc.NewSet(0, 1), proc.NewSet(0, 1, 2)}
	for i, w := range want {
		up.Clear()
		up.UnionWith(w)
		h.ObserveRound(round.Observation{Round: uint64(i + 1), Alive: up})
	}
	up.Clear()
	for i, w := range want {
		if got := h.AliveAt(i + 1); !got.Equal(w) {
			t.Errorf("AliveAt(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestObserveOutOfOrderPanics(t *testing.T) {
	h := New(1, proc.Set{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order observation")
		}
	}()
	h.ObserveRound(round.Observation{Round: 5})
}
