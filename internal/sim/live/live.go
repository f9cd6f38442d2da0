// Package live runs asynchronous protocols (the async.Proc interface) on
// real goroutines and channels instead of the deterministic discrete-event
// engine. One goroutine per process serializes its callbacks; messages
// travel through mailboxes (unbounded by default; a bounded mailbox drops
// its oldest message when full), optionally delayed by a seeded random
// duration.
//
// The runtime is supervised: every process callback runs under panic
// recovery (a panicking process is resumed from its current state — which
// self-stabilization makes safe), processes can be killed and restarted
// mid-run (a restarted process resumes from arbitrary, possibly corrupted
// state: the paper's §2.1 made operational), and a chaos.Nemesis can
// drop, duplicate, delay, and reorder messages, partition the network,
// and skew tick clocks. Health reports restarts, panics, drops, and
// mailbox high-water marks.
//
// The runtime trades the simulator's replayability for actual concurrency:
// it is the deployment-shaped backend, while sim/async remains the
// verification backend. The conformance tests in this package run the §3
// stabilizing consensus and the Figure 4 detector transform on both and
// check the same eventual properties.
//
// Because process state is owned by its goroutine, external inspection
// must go through Inspect, which executes a closure on the process's own
// goroutine.
//
//ftss:conc one goroutine per process; lock/channel protocol statically checked
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/failure"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// Config parameterizes a Runtime.
type Config struct {
	// Seed drives message-delay randomness.
	Seed int64
	// TickEvery is the interval between a process's OnTick calls.
	// Default 1ms.
	TickEvery time.Duration
	// MinDelay and MaxDelay bound the artificial message delay.
	// Both zero means immediate handoff.
	MinDelay, MaxDelay time.Duration
	// Nemesis injects network and clock faults (nil = none).
	Nemesis chaos.Nemesis
	// MailboxCap bounds each mailbox's queued messages (0 = unbounded).
	// A full mailbox discards its oldest message to admit the new one —
	// the lossy-link rule; self-stabilizing protocols re-send, so the
	// loss only delays them.
	MailboxCap int
	// Obs holds the runtime's counters and event sink; Health renders
	// those counters. Nil gets a private "live." registry with no sink.
	Obs *Instruments
	// N is the broadcast universe 0..N-1 for runtimes that host only a
	// subset of it (a networked node hosts one process of an n-process
	// protocol). Zero means broadcasts reach hosted processes only.
	N int
	// Router receives sends addressed to processes this runtime does not
	// host. The Nemesis is not consulted for routed sends: for external
	// destinations, network faults belong to the transport carrying them.
	Router func(from, to proc.ID, payload any)
}

func (c Config) withDefaults() Config {
	if c.TickEvery <= 0 {
		c.TickEvery = time.Millisecond
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = c.MinDelay
	}
	if c.Obs == nil {
		c.Obs = NewInstruments(obs.NewRegistry(), "live", nil)
	}
	return c
}

type item struct {
	from    proc.ID
	payload any
	fn      func() // control item: runs on the process goroutine
}

// mailbox is an MPSC queue with channel-based wakeup, optionally bounded.
// Control items (Inspect closures) always bypass the bound: they belong
// to the runtime, not the network.
type mailbox struct {
	mu sync.Mutex
	//ftss:guardedby mu
	items []item
	//ftss:guardedby mu
	msgs int // queued non-control items
	//ftss:guardedby mu
	closed bool
	notify chan struct{} // new item available

	cap   int
	rt    *Runtime
	owner proc.ID
}

func (rt *Runtime) newMailboxFor(id proc.ID) *mailbox {
	return &mailbox{notify: make(chan struct{}, 1), cap: rt.cfg.MailboxCap, rt: rt, owner: id}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put enqueues it, first discarding the oldest queued message if a
// message would overflow the bound. It reports whether the item was
// enqueued (false once the mailbox is closed).
func (m *mailbox) put(it item) bool {
	ins := m.rt.cfg.Obs
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if m.cap > 0 && it.fn == nil && m.msgs >= m.cap {
		for i, old := range m.items {
			if old.fn == nil {
				m.items = append(m.items[:i], m.items[i+1:]...)
				m.msgs--
				ins.OverflowDropped.Inc()
				m.rt.emit("overflow_drop", m.owner, "")
				break
			}
		}
	}
	m.items = append(m.items, it)
	if it.fn == nil {
		m.msgs++
		ins.MailboxHighWater.SetMax(int64(m.msgs))
	}
	m.mu.Unlock()
	signal(m.notify)
	return true
}

func (m *mailbox) drain() []item {
	m.mu.Lock()
	items := m.items
	m.items = nil
	m.msgs = 0
	m.mu.Unlock()
	return items
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.items = nil
	m.msgs = 0
	m.mu.Unlock()
}

// Health is the runtime's operational report: a reading of its
// Instruments counters, aggregated over every process and incarnation.
type Health struct {
	// Sent and Delivered count messages offered to and dispatched from
	// mailboxes.
	Sent, Delivered uint64
	// ChaosDropped and ChaosDuplicated count Nemesis verdicts applied.
	ChaosDropped, ChaosDuplicated uint64
	// Restarts counts Runtime.Restart calls; Panics counts recovered
	// callback panics (each one is a supervised in-place resume).
	Restarts, Panics uint64
	// OverflowDropped counts messages discarded by full mailboxes.
	OverflowDropped uint64
	// MailboxHighWater is the deepest any mailbox has been.
	MailboxHighWater int64
}

// String renders a compact single-run report.
func (h Health) String() string {
	return fmt.Sprintf(
		"health: sent=%d delivered=%d chaos-dropped=%d chaos-duplicated=%d restarts=%d panics=%d overflow-dropped=%d mailbox-high-water=%d",
		h.Sent, h.Delivered, h.ChaosDropped, h.ChaosDuplicated, h.Restarts, h.Panics, h.OverflowDropped, h.MailboxHighWater)
}

// Runtime hosts one goroutine per process, under supervision.
type Runtime struct {
	cfg   Config
	procs map[proc.ID]*worker
	start time.Time
	done  chan struct{} // closed by the first Stop

	mu sync.Mutex
	//ftss:guardedby mu
	crashed proc.Set
	//ftss:guardedby mu
	started bool
	//ftss:guardedby mu
	stopped bool

	wg  sync.WaitGroup
	seq atomic.Uint64
}

// worker supervises one process: its current mailbox, stop channel, and
// goroutine incarnation.
type worker struct {
	rt  *Runtime
	id  proc.ID
	p   async.Proc
	rng *rand.Rand

	mu sync.Mutex
	//ftss:guardedby mu
	box *mailbox
	//ftss:guardedby mu
	stop chan struct{}
	//ftss:guardedby mu
	exited chan struct{} // closed when the current incarnation returns
	//ftss:guardedby mu
	alive bool
}

// New builds a runtime over the processes. IDs must be unique (density is
// not required here; routing is by map).
func New(procs []async.Proc, cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:     cfg,
		procs:   make(map[proc.ID]*worker, len(procs)),
		done:    make(chan struct{}),
		crashed: proc.NewSet(),
	}
	for i, p := range procs {
		id := p.ID()
		if _, dup := rt.procs[id]; dup {
			return nil, fmt.Errorf("duplicate process id %v", id)
		}
		rt.procs[id] = &worker{
			rt:  rt,
			id:  id,
			p:   p,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
	}
	return rt, nil
}

// MustNew panics on configuration errors.
func MustNew(procs []async.Proc, cfg Config) *Runtime {
	rt, err := New(procs, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Start launches every process goroutine. It may be called once.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return
	}
	rt.started = true
	rt.start = time.Now()
	rt.mu.Unlock()

	for _, w := range rt.procs {
		w.launch()
	}
}

// launch starts a fresh incarnation of the worker's goroutine with a
// fresh mailbox. The caller must guarantee no other incarnation is
// running.
func (w *worker) launch() {
	w.rt.mu.Lock()
	stopped := w.rt.stopped
	w.rt.mu.Unlock()
	if stopped {
		return
	}
	w.mu.Lock()
	w.box = w.rt.newMailboxFor(w.id)
	w.stop = make(chan struct{})
	w.exited = make(chan struct{})
	w.alive = true
	box, stop, exited := w.box, w.stop, w.exited
	w.mu.Unlock()

	w.rt.wg.Add(1)
	go w.run(box, stop, exited)
}

// halt stops the worker's current incarnation: marks it dead and closes
// its mailbox and stop channel, all under w.mu. It returns the
// incarnation's exited channel and reports whether the worker was alive.
// halt is the single closing owner of w.stop: Stop and Kill both route
// through here, so the two paths can never double-close it on a racing
// interleaving (the chandiscipline rule ftss-lint enforces).
func (w *worker) halt() (exited chan struct{}, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.alive {
		return nil, false
	}
	w.alive = false
	w.box.close()
	close(w.stop)
	return w.exited, true
}

// Stop shuts down every goroutine, cancels outstanding Apply actions, and
// waits for the goroutines to exit. Further calls are no-ops.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	started := rt.started
	close(rt.done)
	rt.mu.Unlock()
	if !started {
		return
	}

	for _, w := range rt.procs {
		w.halt()
	}
	rt.wg.Wait()
}

// Kill crashes a process: its goroutine stops, its mailbox closes, and
// in-flight messages to it are lost. It blocks until the goroutine has
// exited and reports whether the process was running. The process's
// in-memory state is retained for a later Restart.
func (rt *Runtime) Kill(id proc.ID) bool {
	w, ok := rt.procs[id]
	if !ok || !rt.running() {
		return false
	}
	exited, ok := w.halt()
	if !ok {
		return false
	}

	rt.mu.Lock()
	rt.crashed.Add(id)
	rt.mu.Unlock()
	rt.cfg.Obs.Kills.Inc()
	rt.emit("kill", id, "")

	<-exited
	return true
}

// running reports whether the runtime is started and not yet stopped.
func (rt *Runtime) running() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.started && !rt.stopped
}

// Restart re-animates a killed process. Its protocol resumes from
// whatever in-memory state it holds — arbitrary garbage, as far as the
// model is concerned, which is exactly the systemic-failure class
// self-stabilization absorbs (§2.1). It reports whether a restart
// happened (false if the process is running, unknown, or the runtime is
// not in a running state).
func (rt *Runtime) Restart(id proc.ID) bool {
	return rt.restart(id, nil)
}

// CorruptAndRestart is Restart preceded by a systemic failure: if the
// process implements failure.Corruptible its state is randomized with rng
// before it resumes — a crash-restart from corrupted state.
func (rt *Runtime) CorruptAndRestart(id proc.ID, rng *rand.Rand) bool {
	return rt.restart(id, rng)
}

func (rt *Runtime) restart(id proc.ID, corrupt *rand.Rand) bool {
	w, ok := rt.procs[id]
	if !ok || !rt.running() {
		return false
	}

	w.mu.Lock()
	if w.alive {
		w.mu.Unlock()
		return false
	}
	exited := w.exited
	w.mu.Unlock()
	if exited != nil {
		<-exited // never overlap incarnations: the old goroutine owns p's state
	}

	detail := ""
	if corrupt != nil {
		if c, ok := w.p.(failure.Corruptible); ok {
			c.Corrupt(corrupt)
		}
		detail = "corrupt"
	}

	rt.mu.Lock()
	rt.crashed.Remove(id)
	rt.mu.Unlock()
	rt.cfg.Obs.Restarts.Inc()
	rt.emit("restart", id, detail)

	w.launch()
	return true
}

// CorruptInPlace strikes a running process with a systemic failure on its
// own goroutine (no crash): state is randomized mid-execution if the
// process implements failure.Corruptible. It reports whether the strike
// was delivered.
func (rt *Runtime) CorruptInPlace(id proc.ID, rng *rand.Rand) bool {
	struck := false
	ok := rt.Inspect(id, func(p async.Proc) {
		if c, isC := p.(failure.Corruptible); isC {
			c.Corrupt(rng)
			struck = true
		}
	})
	return ok && struck
}

// Apply schedules a chaos action list (from chaos.Plan.Actions, or any
// list sorted by At) against the runtime: kills, restarts (optionally
// from corrupted state), and in-place corruption fire at their offsets
// from Start. The returned channel closes when every action has been
// applied; Stop cancels outstanding ones. Call after Start. rng drives
// the corruption and must not be used concurrently elsewhere.
func (rt *Runtime) Apply(actions []chaos.Action, rng *rand.Rand) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, act := range actions {
			if d := time.Until(rt.start.Add(act.At)); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-rt.done:
					timer.Stop()
					return
				}
			}
			switch act.Kind {
			case chaos.ActKill:
				rt.Kill(act.P)
			case chaos.ActRestart:
				if act.CorruptState {
					rt.CorruptAndRestart(act.P, rng)
				} else {
					rt.Restart(act.P)
				}
			case chaos.ActCorrupt:
				rt.CorruptInPlace(act.P, rng)
			}
		}
	}()
	return done
}

// Crashed returns the processes currently down (killed and not yet
// restarted).
func (rt *Runtime) Crashed() proc.Set {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.crashed.Clone()
}

// Up returns the processes currently running.
func (rt *Runtime) Up() proc.Set {
	up := proc.NewSet()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for id := range rt.procs {
		if !rt.crashed.Has(id) {
			up.Add(id)
		}
	}
	return up
}

// Health reads the runtime's counters.
func (rt *Runtime) Health() Health {
	ins := rt.cfg.Obs
	return Health{
		Sent:             ins.Sent.Value(),
		Delivered:        ins.Delivered.Value(),
		ChaosDropped:     ins.ChaosDropped.Value(),
		ChaosDuplicated:  ins.ChaosDuplicated.Value(),
		Restarts:         ins.Restarts.Value(),
		Panics:           ins.Panics.Value(),
		OverflowDropped:  ins.OverflowDropped.Value(),
		MailboxHighWater: ins.MailboxHighWater.Value(),
	}
}

// Inspect runs fn on p's own goroutine (so fn may safely read the
// process's state) and blocks until it has run. It returns false if the
// process is crashed or the runtime is stopped.
func (rt *Runtime) Inspect(id proc.ID, fn func(p async.Proc)) bool {
	w, ok := rt.procs[id]
	if !ok {
		return false
	}
	w.mu.Lock()
	if !w.alive {
		w.mu.Unlock()
		return false
	}
	box, stop := w.box, w.stop
	w.mu.Unlock()

	done := make(chan struct{})
	if !box.put(item{fn: func() {
		fn(w.p)
		close(done)
	}}) {
		return false
	}
	select {
	case <-done:
		return true
	case <-stop:
		return false
	}
}

// Inject delivers a message that arrived from outside the runtime (a
// socket transport, a bridged simulator) to the hosted process to. It
// takes the exact same path as an in-process Send — worker.deliver into
// the bounded mailbox, so the overflow rule and its accounting are
// identical whether a message crossed a channel or a socket. The Nemesis
// is not consulted: for external arrivals, network faults belong to the
// transport that carried them. It reports whether the message was
// enqueued (false if the destination is unhosted or down).
func (rt *Runtime) Inject(from, to proc.ID, payload any) bool {
	w, ok := rt.procs[to]
	if !ok {
		return false
	}
	rt.cfg.Obs.Sent.Inc()
	return w.deliver(item{from: from, payload: payload})
}

// deliver routes it into the worker's current mailbox (which may have
// been replaced by a restart since the message was sent).
func (w *worker) deliver(it item) bool {
	w.mu.Lock()
	if !w.alive {
		w.mu.Unlock()
		return false
	}
	box := w.box
	w.mu.Unlock()
	return box.put(it)
}

// run is one incarnation of the worker's goroutine. Callbacks execute
// under panic supervision: a panic is recovered, counted, and the loop
// resumes from the process's current state.
func (w *worker) run(box *mailbox, stop, exited chan struct{}) {
	defer w.rt.wg.Done()
	defer close(exited)
	ctx := &liveCtx{w: w}
	timer := time.NewTimer(w.tickInterval())
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-box.notify:
			for _, it := range box.drain() {
				it := it
				if it.fn != nil {
					w.supervised(it.fn)
					continue
				}
				w.rt.cfg.Obs.Delivered.Inc()
				w.supervised(func() { w.p.OnMessage(ctx, it.from, it.payload) })
			}
		case <-timer.C:
			w.supervised(func() { w.p.OnTick(ctx) })
			timer.Reset(w.tickInterval())
		}
	}
}

// supervised runs one callback under panic recovery.
func (w *worker) supervised(f func()) {
	defer func() {
		if r := recover(); r != nil {
			w.rt.cfg.Obs.Panics.Inc()
			w.rt.emit("panic", w.id, "")
		}
	}()
	f()
}

// tickInterval is the configured tick, stretched by any active clock
// skew.
func (w *worker) tickInterval() time.Duration {
	d := w.rt.cfg.TickEvery
	if nem := w.rt.cfg.Nemesis; nem != nil {
		if scale := nem.TickScale(time.Since(w.rt.start), w.id); scale > 0 {
			d = time.Duration(float64(d) * scale)
		}
	}
	if d <= 0 {
		d = w.rt.cfg.TickEvery
	}
	return d
}

type liveCtx struct{ w *worker }

// Now implements async.Context: virtual time is wall time since Start, in
// the engine's microsecond unit.
func (c *liveCtx) Now() async.Time {
	return async.Time(time.Since(c.w.rt.start) / time.Microsecond)
}

// Rand implements async.Context with the process-local source.
func (c *liveCtx) Rand() *rand.Rand { return c.w.rng }

// Send implements async.Context. The message passes through the
// Nemesis, which may drop, duplicate, or add delay (reordering it past
// later traffic).
func (c *liveCtx) Send(to proc.ID, payload any) {
	rt := c.w.rt
	ins := rt.cfg.Obs
	target, ok := rt.procs[to]
	if !ok {
		if rt.cfg.Router != nil {
			ins.Sent.Inc()
			rt.cfg.Router(c.w.p.ID(), to, payload)
		}
		return
	}
	ins.Sent.Inc()
	it := item{from: c.w.p.ID(), payload: payload}
	verdict := chaos.Deliver()
	if rt.cfg.Nemesis != nil {
		seq := rt.seq.Add(1)
		verdict = rt.cfg.Nemesis.Fate(time.Since(rt.start), seq, it.from, to)
	}
	if verdict.Drop {
		ins.ChaosDropped.Inc()
		rt.emit("nemesis_drop", to, "")
		return
	}
	copies := verdict.Copies
	if copies < 1 {
		copies = 1
	}
	if copies > 1 {
		ins.ChaosDuplicated.Add(uint64(copies - 1))
		rt.emit("nemesis_dup", to, "")
	}
	for i := 0; i < copies; i++ {
		delay := rt.cfg.MinDelay + verdict.ExtraDelay
		if span := rt.cfg.MaxDelay - rt.cfg.MinDelay; span > 0 {
			delay += time.Duration(c.w.rng.Int63n(int64(span) + 1))
		}
		if delay <= 0 {
			target.deliver(it)
			continue
		}
		time.AfterFunc(delay, func() { target.deliver(it) })
	}
}

// Broadcast implements async.Context. With Config.N set the universe is
// 0..N-1 (unhosted destinations go through the Router); otherwise it is
// the hosted processes.
func (c *liveCtx) Broadcast(payload any) {
	if n := c.w.rt.cfg.N; n > 0 {
		for id := proc.ID(0); id < proc.ID(n); id++ {
			c.Send(id, payload)
		}
		return
	}
	for id := range c.w.rt.procs {
		c.Send(id, payload)
	}
}

var _ async.Context = (*liveCtx)(nil)
