package async

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ftss/internal/proc"
)

// windowConfigs are engine configurations whose spans differ in the term
// that sets them: the tick, MaxDelay, PreGSTMaxDelay before GST, and
// MinDelay where withDefaults leaves MaxDelay below it.
var windowConfigs = []struct {
	name string
	cfg  Config
	span Time
}{
	{"store", Config{TickEvery: Millisecond, MinDelay: Millisecond, MaxDelay: 2 * Millisecond}, 2 * Millisecond},
	{"defaults", Config{}, 5 * Millisecond},
	{"slow-tick", Config{TickEvery: 7 * Millisecond, MaxDelay: 3 * Millisecond}, 7 * Millisecond},
	{"gst", Config{GST: 60 * Millisecond, MaxDelay: 3 * Millisecond, PreGSTMaxDelay: 25 * Millisecond}, 25 * Millisecond},
	{"gst-default", Config{GST: 20 * Millisecond, MaxDelay: 3 * Millisecond}, 30 * Millisecond},
	{"min-over-max", Config{MinDelay: 10 * Millisecond}, 10 * Millisecond},
}

// TestConfigSpan: the window is the largest offset each configuration
// can schedule, after defaults.
func TestConfigSpan(t *testing.T) {
	for _, c := range windowConfigs {
		if got := c.cfg.withDefaults().span(); got != c.span {
			t.Errorf("%s: span %d, want %d", c.name, got, c.span)
		}
	}
}

// queueRun drives an eventRing and a reference list through one
// sequence of operations, each byte one operation, and fails on the
// first pop that differs from the reference: the queued event with the
// least (at, push order). Low two bits choose the operation, the other
// six its argument a in [0, 63]:
//
//	0, 1  push an event at now + a·span/63 (64 offsets, so ties are common)
//	2     pop the head
//	3     advance now a/63 of the way to the earliest queued event (or by
//	      a·span/63 when the queue is empty), as RunUntil does between events
//
// Whatever is left is drained at the end. Every slab slot must then be
// zero, so no payload outlives its pop. queueRun returns how many times
// now went round the ring.
func queueRun(span Time, ops []byte) (wraps int, err error) {
	type ref struct {
		at    Time
		order int
	}
	var q eventRing
	q.init(span)
	var now Time
	var pending []ref
	pushed := 0
	earliest := func() int {
		best := 0
		for i, r := range pending {
			if r.at < pending[best].at || r.at == pending[best].at && r.order < pending[best].order {
				best = i
			}
		}
		return best
	}
	pop := func() error {
		i := q.head(now)
		if i == 0 {
			return fmt.Errorf("head(%d) = 0 with %d queued", now, len(pending))
		}
		ev := q.pop(i)
		b := earliest()
		want := pending[b]
		pending = append(pending[:b], pending[b+1:]...)
		if ev.at != want.at || ev.payload != want.order {
			return fmt.Errorf("pop at now=%d: (at=%d, push %v), want (at=%d, push %d)", now, ev.at, ev.payload, want.at, want.order)
		}
		now = ev.at
		return nil
	}
	for _, op := range ops {
		a := Time(op >> 2)
		switch op & 3 {
		case 0, 1:
			ev := event{at: now + a*span/63, kind: evDeliver, payload: pushed}
			q.push(ev)
			pending = append(pending, ref{ev.at, pushed})
			pushed++
		case 2:
			if len(pending) > 0 {
				if err := pop(); err != nil {
					return 0, err
				}
			}
		case 3:
			if len(pending) == 0 {
				now += a * span / 63
			} else {
				now += (pending[earliest()].at - now) * a / 63
			}
		}
		if q.n != len(pending) {
			return 0, fmt.Errorf("%d queued, want %d", q.n, len(pending))
		}
	}
	for len(pending) > 0 {
		if err := pop(); err != nil {
			return 0, err
		}
	}
	if i := q.head(now); i != 0 {
		return 0, fmt.Errorf("head(%d) = %d after draining", now, i)
	}
	for i, ev := range q.slab[:cap(q.slab)] {
		if ev.payload != nil || ev.at != 0 {
			return 0, fmt.Errorf("vacated slot %d still holds (at=%d, %v)", i, ev.at, ev.payload)
		}
	}
	return int(now>>q.shift) / ringSize, nil
}

// TestEventQueuePopsInSortedOrder: under random interleaved pushes, pops
// and clock advances the calendar ring pops events in exactly the order
// of a sort by (at, push order), the order the binary heap it replaced
// gave. Pushes and pops are equally likely, so the queue stays short and
// now goes round the ring many times in each run; the configurations
// include GST and MinDelay > MaxDelay windows.
func TestEventQueuePopsInSortedOrder(t *testing.T) {
	spans := []Time{
		// The widest windows for bucket widths 1, 2 and 64 µs: the window
		// touches every slot. Then windows that one fewer bucket would
		// not hold, as a ring of exactly span µs would be.
		ringSize - 2, 2*ringSize - 3, 64*ringSize - 65, 2*ringSize - 1, 4*ringSize - 1,
	}
	for _, c := range windowConfigs {
		spans = append(spans, c.span)
	}
	for _, span := range spans {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 8000)
			for i := range ops {
				kind := [...]byte{0, 2, 3}[rng.Intn(20)/9] // push:pop:advance 9:9:2
				ops[i] = byte(rng.Intn(64))<<2 | kind
			}
			wraps, err := queueRun(span, ops)
			if err != nil {
				t.Fatalf("span=%d seed=%d: %v", span, seed, err)
			}
			if wraps < 4 {
				t.Fatalf("span=%d seed=%d: now went round the ring %d times, want at least 4", span, seed, wraps)
			}
		}
	}
	// Bursts at one time: the insertion walk, the tail append and the
	// head insert all see long lists of equal keys.
	burst := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		burst = append(burst, 0, 63<<2, byte(i%64)<<2)
	}
	if _, err := queueRun(2*Millisecond, burst); err != nil {
		t.Fatalf("burst: %v", err)
	}
}

// FuzzEventQueue is TestEventQueuePopsInSortedOrder's property over
// arbitrary windows and operation sequences.
func FuzzEventQueue(f *testing.F) {
	for _, c := range windowConfigs {
		seed := binary.LittleEndian.AppendUint32(nil, uint32(c.span))
		f.Add(append(seed, 0, 1, 2, 3, 252, 253, 254, 255, 2, 2, 2, 2))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		span := Time(1 + binary.LittleEndian.Uint32(in)%(1<<24))
		if _, err := queueRun(span, in[4:]); err != nil {
			t.Fatalf("span=%d: %v", span, err)
		}
	})
}

// chatty broadcasts on every tick, so an engine under it schedules
// deliveries at every delay its configuration allows.
type chatty proc.ID

func (p chatty) ID() proc.ID                   { return proc.ID(p) }
func (chatty) OnTick(ctx Context)              { ctx.Broadcast(0) }
func (chatty) OnMessage(Context, proc.ID, any) {}

// TestEngineStaysInWindow: every windowConfigs engine runs through and
// past GST without scheduling outside its window (push would panic).
func TestEngineStaysInWindow(t *testing.T) {
	for _, c := range windowConfigs {
		cfg := c.cfg
		cfg.Seed = 3
		e := MustNewEngine([]Proc{chatty(0), chatty(1), chatty(2), chatty(3)}, cfg)
		e.RunUntil(100 * Millisecond)
		if e.MessagesDelivered() == 0 {
			t.Errorf("%s: nothing delivered", c.name)
		}
	}
}

// TestPushOutsideWindowPanics: an event before now or past now+span
// would break the ring's order, so the engine refuses it.
func TestPushOutsideWindowPanics(t *testing.T) {
	e := MustNewEngine([]Proc{idle(0), idle(1)}, Config{Seed: 1})
	e.RunUntil(10 * Millisecond)
	for _, at := range []Time{e.Now() - 1, e.Now() + e.span + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push at %d (now %d, span %d) did not panic", at, e.Now(), e.span)
				}
			}()
			e.push(event{at: at, kind: evDeliver, payload: 0})
		}()
	}
	e.push(event{at: e.Now() + e.span, kind: evDeliver, payload: 0}) // the window's edge is inside
}

// TestEventSize: the slab holds events by value, and every queued event
// is live heap that a collection scans. A 64-byte event (one more link
// beside the old 8-byte kind) raised heap_bytes_per_op by 2–4 % on the
// benchmark's TCP workloads; the 56-byte event kept it flat. The event
// is 48 bytes now that push order is kept by position, not a sequence
// number.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 56 {
		t.Errorf("event is %d bytes, want at most 56", n)
	}
}

// idle is a Proc that does nothing, so Step's own cost is all there is.
type idle proc.ID

func (p idle) ID() proc.ID                   { return proc.ID(p) }
func (idle) OnTick(Context)                  {}
func (idle) OnMessage(Context, proc.ID, any) {}

// TestStepAllocations pins what one event costs the allocator: nothing.
// Events live by value in the queue's slab, so a tick schedules its
// successor into the slot its own pop freed, and a delivery allocates
// nothing either.
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
