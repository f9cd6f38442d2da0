package async

import (
	"math/rand"
	"slices"
	"testing"

	"ftss/internal/proc"
)

// TestEventHeapPopsInSortedOrder: under random interleaved pushes and
// pops the value heap yields events in exactly the order of a sort by
// (at, seq) — the order container/heap gave, since seq makes it total —
// and every slot it vacates is zeroed, so no payload outlives its pop.
func TestEventHeapPopsInSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var pending, popped, want []event
		var seq uint64
		drain := func(n int) {
			slices.SortFunc(pending, func(a, b event) int {
				if a.before(&b) {
					return -1
				}
				return 1
			})
			want = append(want, pending[:n]...)
			pending = pending[n:]
			for ; n > 0; n-- {
				popped = append(popped, h.pop())
			}
		}
		for step := 0; step < 400; step++ {
			for n := rng.Intn(8); n > 0; n-- {
				// Few distinct times, so ties on at are the common case.
				ev := event{at: Time(rng.Intn(12)), seq: seq, payload: seq}
				seq++
				h.push(ev)
				pending = append(pending, ev)
			}
			drain(rng.Intn(len(pending) + 1))
		}
		drain(len(pending))
		if len(h) != 0 {
			t.Fatalf("seed=%d: %d events left after draining", seed, len(h))
		}
		for i, ev := range h[:cap(h)] {
			if ev.payload != nil {
				t.Fatalf("seed=%d: vacated slot %d still holds payload %v", seed, i, ev.payload)
			}
		}
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("seed=%d: pop %d = (at=%d seq=%d), sorted order has (at=%d seq=%d)",
					seed, i, popped[i].at, popped[i].seq, want[i].at, want[i].seq)
			}
		}
	}
}

// idle is a Proc that does nothing, so Step's own cost is all there is.
type idle proc.ID

func (p idle) ID() proc.ID                   { return proc.ID(p) }
func (idle) OnTick(Context)                  {}
func (idle) OnMessage(Context, proc.ID, any) {}

// TestStepAllocations pins what one event costs the allocator: nothing.
// Events live by value in the heap slice, so a tick schedules its
// successor without allocating, and a delivery allocates nothing either.
func TestStepAllocations(t *testing.T) {
	const runs = 200
	e := MustNewEngine([]Proc{idle(0), idle(1), idle(2)}, Config{Seed: 1})
	if n := testing.AllocsPerRun(runs, func() { e.Step() }); n != 0 {
		t.Errorf("tick Step allocates %.1f times, want 0", n)
	}

	// Deliveries only: queue pre-boxed payloads ahead of every tick.
	e = MustNewEngine([]Proc{idle(0), idle(1), idle(2)}, Config{Seed: 1})
	var payload any = "ping"
	for i := 0; i <= runs+1; i++ { // AllocsPerRun adds one warm-up call
		e.push(event{at: 0, kind: evDeliver, to: proc.ID(i % 3), from: 0, payload: payload})
	}
	if n := testing.AllocsPerRun(runs, func() { e.Step() }); n != 0 {
		t.Errorf("delivery Step allocates %.1f times, want 0", n)
	}
	if e.MessagesDelivered() != runs+1 {
		t.Fatalf("measured %d deliveries, want %d: ticks leaked into the run", e.MessagesDelivered(), runs+1)
	}
}
