package ctcons

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAdoptDecisionOrderIndependence: the write-many decision register is
// a join over the lexicographic (round, value) order, so the final state
// is independent of gossip delivery order — the property that makes the
// corrupted-register cleanup converge.
func TestAdoptDecisionOrderIndependence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := make([]DecideMsg, 8)
		for i := range batch {
			batch[i] = DecideMsg{
				Round: uint64(rng.Intn(5)),
				Val:   Value(rng.Intn(5)),
			}
		}
		apply := func(order []int) (Value, uint64, bool) {
			p := New(0, 3, 0, Stabilizing(), quietWeak(3))
			for _, i := range order {
				p.adoptDecision(batch[i])
			}
			return p.Decision()
		}
		v1, r1, _ := apply([]int{0, 1, 2, 3, 4, 5, 6, 7})
		v2, r2, _ := apply([]int{7, 6, 5, 4, 3, 2, 1, 0})
		v3, r3, _ := apply([]int{4, 1, 7, 0, 3, 6, 2, 5})
		if v1 != v2 || v1 != v3 || r1 != r2 || r1 != r3 {
			t.Fatalf("seed=%d: order-dependent register: (%d,%d) (%d,%d) (%d,%d)",
				seed, v1, r1, v2, r2, v3, r3)
		}
	}
}

// TestAdoptDecisionIdempotentAndMonotone via testing/quick.
func TestAdoptDecisionIdempotentAndMonotone(t *testing.T) {
	f := func(r1, r2 uint16, v1, v2 int16) bool {
		p := New(0, 3, 0, Stabilizing(), quietWeak(3))
		a := DecideMsg{Round: uint64(r1), Val: Value(v1)}
		b := DecideMsg{Round: uint64(r2), Val: Value(v2)}
		p.adoptDecision(a)
		va, ra, _ := p.Decision()
		p.adoptDecision(a) // idempotent
		if v, r, _ := p.Decision(); v != va || r != ra {
			return false
		}
		p.adoptDecision(b)
		vb, rb, _ := p.Decision()
		// Monotone: the register never moves lexicographically down.
		if rb < ra || (rb == ra && vb < va) {
			return false
		}
		// And it equals the lexicographic max of the two inputs.
		wantR, wantV := uint64(r1), Value(v1)
		if uint64(r2) > wantR || (uint64(r2) == wantR && Value(v2) > wantV) {
			wantR, wantV = uint64(r2), Value(v2)
		}
		return rb == wantR && vb == wantV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBaselineRegisterIsFirstWriteWins: the baseline keeps classical
// write-once semantics (which is exactly what corruption exploits).
func TestBaselineRegisterIsFirstWriteWins(t *testing.T) {
	f := func(r1, r2 uint16, v1, v2 int16) bool {
		p := New(0, 3, 0, Baseline(), quietWeak(3))
		p.adoptDecision(DecideMsg{Round: uint64(r1), Val: Value(v1)})
		p.adoptDecision(DecideMsg{Round: uint64(r2), Val: Value(v2)})
		v, r, ok := p.Decision()
		return ok && v == Value(v1) && r == uint64(r1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAdvanceClearsPerRoundState: advancing abandons exactly the per-round
// work and nothing else; a future round's buffered traffic (kept while
// AdoptRounds is off) becomes the new round's.
func TestAdvanceClearsPerRoundState(t *testing.T) {
	m := NewMachine(0, 3, 42, Baseline())
	m.ts = 3
	m.round = 6 // coordinated by p0, as round 9 is
	m.OnMessage(1, EstimateMsg{Round: 6, Val: 1, TS: 1})
	m.OnMessage(1, AckMsg{Round: 6})
	m.OnMessage(2, EstimateMsg{Round: 9, Val: 2, TS: 2}) // future round: buffered
	m.proposed = true

	m.advanceTo(9)
	if m.round != 9 || m.proposed || m.sentEstimate {
		t.Error("per-round flags not reset")
	}
	if m.cur.acks.Len() != 0 || m.cur.senders.Has(1) {
		t.Error("stale round's traffic kept")
	}
	if !m.cur.senders.Has(2) || m.cur.ests[2].Val != 2 {
		t.Error("future round's buffered estimate dropped")
	}
	if len(m.later) != 0 {
		t.Errorf("%d future tallies left after their round became current", len(m.later))
	}
	if m.estimate != 42 || m.ts != 3 {
		t.Error("estimate/ts must survive round changes (CT locking)")
	}
}
