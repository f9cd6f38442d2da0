package async

import (
	"math/rand"
	"testing"

	"ftss/internal/proc"
)

// pinger counts ticks and echoes every message back to its sender.
type pinger struct {
	id       proc.ID
	ticks    int
	got      []any
	from     []proc.ID
	sendOnTo proc.ID // if ≥ 0, send "ping" there on every tick
	corrupts int
}

func (p *pinger) ID() proc.ID { return p.id }

func (p *pinger) OnTick(ctx Context) {
	p.ticks++
	if p.sendOnTo >= 0 {
		ctx.Send(p.sendOnTo, "ping")
	}
}

func (p *pinger) OnMessage(ctx Context, from proc.ID, payload any) {
	p.got = append(p.got, payload)
	p.from = append(p.from, from)
}

func (p *pinger) Corrupt(*rand.Rand) { p.corrupts++ }

func newPingers(n int) ([]*pinger, []Proc) {
	cs := make([]*pinger, n)
	ps := make([]Proc, n)
	for i := range cs {
		cs[i] = &pinger{id: proc.ID(i), sendOnTo: -1}
		ps[i] = cs[i]
	}
	return cs, ps
}

func TestEngineValidation(t *testing.T) {
	_, ps := newPingers(2)
	if _, err := NewEngine(ps, Config{Seed: 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := NewEngine([]Proc{&pinger{id: 7, sendOnTo: -1}}, Config{}); err == nil {
		t.Error("out-of-range ID accepted")
	}
	dup := []Proc{&pinger{id: 0, sendOnTo: -1}, &pinger{id: 0, sendOnTo: -1}}
	if _, err := NewEngine(dup, Config{}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestTicksArrivePeriodically(t *testing.T) {
	cs, ps := newPingers(3)
	e := MustNewEngine(ps, Config{Seed: 1, TickEvery: Millisecond})
	e.RunUntil(10 * Millisecond)
	for _, c := range cs {
		if c.ticks < 9 || c.ticks > 11 {
			t.Errorf("%v ticks = %d, want ≈10", c.id, c.ticks)
		}
	}
}

func TestMessageDelivery(t *testing.T) {
	cs, ps := newPingers(2)
	cs[0].sendOnTo = 1
	e := MustNewEngine(ps, Config{Seed: 2, TickEvery: Millisecond, MinDelay: Millisecond, MaxDelay: 2 * Millisecond})
	e.RunUntil(20 * Millisecond)
	if len(cs[1].got) == 0 {
		t.Fatal("no messages delivered")
	}
	for i, m := range cs[1].got {
		if m != "ping" || cs[1].from[i] != 0 {
			t.Fatalf("message %d = %v from %v", i, m, cs[1].from[i])
		}
	}
	if e.MessagesSent() == 0 || e.MessagesDelivered() == 0 {
		t.Error("stats not counted")
	}
	if e.MessagesDelivered() > e.MessagesSent() {
		t.Error("delivered more than sent")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, uint64, Time) {
		cs, ps := newPingers(4)
		cs[0].sendOnTo = 1
		cs[1].sendOnTo = 2
		e := MustNewEngine(ps, Config{Seed: 42, TickEvery: Millisecond, MinDelay: Millisecond, MaxDelay: 4 * Millisecond})
		e.RunUntil(50 * Millisecond)
		return len(cs[2].got), e.MessagesDelivered(), e.Now()
	}
	g1, d1, n1 := run()
	g2, d2, n2 := run()
	if g1 != g2 || d1 != d2 || n1 != n2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", g1, d1, n1, g2, d2, n2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	tick := func(seed int64) int {
		cs, ps := newPingers(2)
		cs[0].sendOnTo = 1
		e := MustNewEngine(ps, Config{Seed: seed, TickEvery: Millisecond, MinDelay: Millisecond, MaxDelay: 10 * Millisecond})
		e.RunUntil(7 * Millisecond)
		return len(cs[1].got)
	}
	same := true
	base := tick(1)
	for s := int64(2); s <= 8; s++ {
		if tick(s) != base {
			same = false
			break
		}
	}
	if same {
		t.Error("every seed produced an identical trace; delays look non-random")
	}
}

func TestCrashStopsProcess(t *testing.T) {
	cs, ps := newPingers(2)
	cs[0].sendOnTo = 1
	e := MustNewEngine(ps, Config{
		Seed:      3,
		TickEvery: Millisecond,
		CrashAt:   map[proc.ID]Time{1: 5 * Millisecond},
	})
	e.RunUntil(30 * Millisecond)

	if cs[1].ticks > 5 {
		t.Errorf("crashed p1 ticked %d times, want ≤5", cs[1].ticks)
	}
	preCrash := len(cs[1].got)
	e.RunUntil(60 * Millisecond)
	if len(cs[1].got) != preCrash {
		t.Error("crashed process kept receiving messages")
	}
	if !e.Crashed().Has(1) {
		t.Errorf("Crashed() = %v", e.Crashed())
	}
	if !e.Correct().Equal(proc.NewSet(0)) {
		t.Errorf("Correct() = %v", e.Correct())
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	cs, ps := newPingers(3)
	e := MustNewEngine(ps, Config{Seed: 4, TickEvery: Millisecond})
	// Drive one broadcast via a tick hook.
	cs[0].sendOnTo = -1
	bcaster := &broadcaster{id: 0}
	ps[0] = bcaster
	e = MustNewEngine(ps, Config{Seed: 4, TickEvery: Millisecond})
	e.RunUntil(10 * Millisecond)
	if bcaster.got == 0 {
		t.Error("broadcast did not reach the sender itself")
	}
	if len(cs[1].got) == 0 || len(cs[2].got) == 0 {
		t.Error("broadcast did not reach others")
	}
}

type broadcaster struct {
	id   proc.ID
	sent bool
	got  int
}

func (b *broadcaster) ID() proc.ID { return b.id }
func (b *broadcaster) OnTick(ctx Context) {
	if !b.sent {
		ctx.Broadcast("hello")
		b.sent = true
	}
}
func (b *broadcaster) OnMessage(ctx Context, from proc.ID, payload any) { b.got++ }

func TestSendToUnknownIsDropped(t *testing.T) {
	cs, ps := newPingers(1)
	cs[0].sendOnTo = 5 // no such process
	e := MustNewEngine(ps, Config{Seed: 5, TickEvery: Millisecond})
	e.RunUntil(10 * Millisecond)
	if e.MessagesSent() != 0 {
		t.Error("sends to unknown processes should be dropped")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	_, ps := newPingers(1)
	e := MustNewEngine(ps, Config{Seed: 6})
	e.RunFor(5 * Millisecond)
	if e.Now() != 5*Millisecond {
		t.Errorf("Now = %d, want %d", e.Now(), 5*Millisecond)
	}
	if e.N() != 1 {
		t.Errorf("N = %d", e.N())
	}
}

func TestStepReturnsFalseWhenDead(t *testing.T) {
	_, ps := newPingers(1)
	e := MustNewEngine(ps, Config{
		Seed:    7,
		CrashAt: map[proc.ID]Time{0: 2 * Millisecond},
	})
	for e.Step() {
	}
	// After the crash there are no events left.
	if e.Step() {
		t.Error("Step should return false once all processes are dead")
	}
}

func TestCorrupt(t *testing.T) {
	cs, ps := newPingers(3)
	e := MustNewEngine(ps, Config{Seed: 8})
	rng := rand.New(rand.NewSource(1))
	if n := e.Corrupt(rng, proc.NewSet(0, 2)); n != 2 {
		t.Errorf("Corrupt = %d", n)
	}
	if n := e.CorruptEverything(rng); n != 3 {
		t.Errorf("CorruptEverything = %d", n)
	}
	if cs[0].corrupts != 2 || cs[1].corrupts != 1 {
		t.Errorf("corrupt counts: %d, %d", cs[0].corrupts, cs[1].corrupts)
	}
	if n := e.Corrupt(rng, proc.NewSet(1, 9)); n != 1 {
		t.Errorf("Corrupt with an unknown ID = %d, want 1", n)
	}
}

func TestDelayBounds(t *testing.T) {
	// With MinDelay=MaxDelay the delay is exact; messages sent at tick t
	// arrive at exactly t+delay.
	recv := &stamped{id: 1}
	sender := &onceSender{id: 0, to: 1}
	e := MustNewEngine([]Proc{sender, recv}, Config{
		Seed: 9, TickEvery: Millisecond,
		MinDelay: 3 * Millisecond, MaxDelay: 3 * Millisecond,
	})
	e.RunUntil(20 * Millisecond)
	if recv.at == 0 {
		t.Fatal("nothing delivered")
	}
	if got := recv.at - sender.sentAt; got != 3*Millisecond {
		t.Errorf("delay = %d, want %d", got, 3*Millisecond)
	}
}

type onceSender struct {
	id     proc.ID
	to     proc.ID
	sent   bool
	sentAt Time
}

func (s *onceSender) ID() proc.ID { return s.id }
func (s *onceSender) OnTick(ctx Context) {
	if !s.sent {
		s.sent = true
		s.sentAt = ctx.Now()
		ctx.Send(s.to, "x")
	}
}
func (s *onceSender) OnMessage(Context, proc.ID, any) {}

type stamped struct {
	id proc.ID
	at Time
}

func (s *stamped) ID() proc.ID    { return s.id }
func (s *stamped) OnTick(Context) {}
func (s *stamped) OnMessage(ctx Context, from proc.ID, payload any) {
	if s.at == 0 {
		s.at = ctx.Now()
	}
}
