package live

import (
	"sync"
	"testing"
	"time"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// gate blocks its worker goroutine inside the first OnMessage until
// released, so the test can fill the mailbox behind it with a known
// number of messages.
type gate struct {
	id      proc.ID
	entered chan struct{}
	release chan struct{}

	mu  sync.Mutex
	got int
}

func newGate(id proc.ID) *gate {
	return &gate{id: id, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) ID() proc.ID          { return g.id }
func (g *gate) OnTick(async.Context) {}
func (g *gate) OnMessage(_ async.Context, _ proc.ID, _ any) {
	g.mu.Lock()
	g.got++
	first := g.got == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
}

// pusher sends a commanded number of messages to process 1 from inside
// the runtime (the channel path), so the test controls exactly how many
// sends happen.
type pusher struct {
	id   proc.ID
	cmds chan int
}

func (p *pusher) ID() proc.ID { return p.id }
func (p *pusher) OnTick(ctx async.Context) {
	select {
	case n := <-p.cmds:
		for i := 0; i < n; i++ {
			ctx.Send(1, i)
		}
	default:
	}
}
func (p *pusher) OnMessage(async.Context, proc.ID, any) {}

// plugAndFlood drives one run: deliver a plug message via send, wait for
// the gate's worker to block on it, then deliver cap+extra more and
// return the resulting overflow drop count (process 1 is the only
// receiver, so the runtime total is its count).
func plugAndFlood(t *testing.T, rt *Runtime, g *gate, send func(i int), total int) uint64 {
	t.Helper()
	send(0)
	select {
	case <-g.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("gate never received the plug message")
	}
	for i := 1; i <= total; i++ {
		send(i)
	}
	// All sends have happened; drops are final once the mailbox has seen
	// every message, which put() guarantees synchronously for Inject and
	// the poll below covers for the in-runtime path.
	deadline := time.Now().Add(2 * time.Second)
	var drops uint64
	for time.Now().Before(deadline) {
		h := rt.Health()
		drops = h.OverflowDropped
		if h.Sent >= uint64(total)+1 {
			// One more health read after a settle so late puts count.
			time.Sleep(10 * time.Millisecond)
			drops = rt.Health().OverflowDropped
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	rt.Stop()
	return drops
}

// TestOverflowAccountingChannelVsInject pins satellite behavior: the
// drop-oldest rule must account identically whether a message reached
// the mailbox from an in-process Send or from Runtime.Inject (the socket
// path). With the receiver blocked and cap+extra messages queued behind
// the block, exactly `extra` drops must be recorded on both paths.
func TestOverflowAccountingChannelVsInject(t *testing.T) {
	const cap, extra = 4, 7

	run := func(name string, build func(g *gate) (*Runtime, func(i int))) uint64 {
		g := newGate(1)
		rt, send := build(g)
		rt.Start()
		drops := plugAndFlood(t, rt, g, send, cap+extra)
		if drops != extra {
			t.Errorf("%s path: %d drops, want exactly %d", name, drops, extra)
		}
		return drops
	}

	chanDrops := run("channel", func(g *gate) (*Runtime, func(i int)) {
		p := &pusher{id: 0, cmds: make(chan int, 16)}
		rt := MustNew([]async.Proc{p, g}, Config{
			Seed: 11, TickEvery: 100 * time.Microsecond,
			MailboxCap: cap,
		})
		return rt, func(int) { p.cmds <- 1 }
	})

	sockDrops := run("inject", func(g *gate) (*Runtime, func(i int)) {
		rt := MustNew([]async.Proc{g}, Config{
			Seed: 11, TickEvery: 100 * time.Microsecond,
			MailboxCap: cap,
		})
		return rt, func(i int) {
			if !rt.Inject(0, 1, i) {
				t.Errorf("Inject #%d refused", i)
			}
		}
	})

	if chanDrops != sockDrops {
		t.Errorf("overflow accounting differs by path: channel=%d inject=%d", chanDrops, sockDrops)
	}
}

func TestInjectLifecycle(t *testing.T) {
	g := newGate(1)
	close(g.release) // no blocking in this test
	rt := MustNew([]async.Proc{g}, Config{Seed: 5, TickEvery: time.Millisecond})
	rt.Start()

	if rt.Inject(0, 99, "x") {
		t.Error("Inject to an unhosted process should report false")
	}
	if !rt.Inject(0, 1, "x") {
		t.Error("Inject to a running process should succeed")
	}
	rt.Kill(1)
	if rt.Inject(0, 1, "x") {
		t.Error("Inject to a killed process should report false")
	}
	rt.Restart(1)
	if !rt.Inject(0, 1, "x") {
		t.Error("Inject to a restarted process should succeed")
	}
	rt.Stop()
}

// chatty broadcasts one payload per tick.
type chatty struct{ id proc.ID }

func (c *chatty) ID() proc.ID                           { return c.id }
func (c *chatty) OnTick(ctx async.Context)              { ctx.Broadcast("hb") }
func (c *chatty) OnMessage(async.Context, proc.ID, any) {}

// TestRouterCarriesUnhostedSends pins the subset-hosting contract: with
// Config.N covering a universe larger than the hosted set, broadcasts
// route unhosted destinations through Config.Router, and routed sends
// count in Health().Sent.
func TestRouterCarriesUnhostedSends(t *testing.T) {
	var mu sync.Mutex
	routed := make(map[proc.ID]int)
	var cfg Config
	cfg = Config{
		Seed: 7, TickEvery: 200 * time.Microsecond, N: 4,
		Router: func(from, to proc.ID, payload any) {
			mu.Lock()
			routed[to]++
			mu.Unlock()
			if from != 1 {
				t.Errorf("routed send from %v, want 1", from)
			}
		},
	}
	rt := MustNew([]async.Proc{&chatty{id: 1}}, cfg)
	rt.Start()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		full := len(routed) == 3 && routed[0] > 0 && routed[2] > 0 && routed[3] > 0
		bad := routed[1] > 0
		mu.Unlock()
		if bad {
			t.Fatal("hosted destination 1 went through the Router")
		}
		if full {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rt.Stop() // all goroutines exited: routed map and counters are final
	h := rt.Health()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range []proc.ID{0, 2, 3} {
		if routed[id] == 0 {
			t.Errorf("unhosted destination %v never routed", id)
		}
	}
	total := uint64(routed[0] + routed[2] + routed[3])
	if h.Sent < total {
		t.Errorf("Health.Sent=%d below routed count %d; routed sends must be counted", h.Sent, total)
	}
}
