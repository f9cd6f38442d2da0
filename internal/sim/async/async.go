// Package async implements the paper's asynchronous system model (§3): a
// completely-connected message-passing system with unbounded (but finite)
// relative process speeds and message delays, crash process failures, and
// systemic failures that corrupt process state.
//
// The simulator is a deterministic discrete-event engine over virtual
// time. Asynchrony is modeled by seeded random per-message delays and
// per-process step ("tick") schedules; identical seeds replay identical
// executions, which the test suite and experiments rely on.
//
// Two properties of the model are engine-enforced rather than left to
// protocols:
//
//   - Processes take steps infinitely often until they crash: the engine
//     delivers ticks on its own schedule, so a protocol's periodic behavior
//     cannot be disabled by corrupted timer state (the paper's protocols
//     are written as "when true: …" guarded commands for the same reason).
//
//   - Links are reliable and FIFO-less: every message sent to a non-crashed
//     process is delivered after a bounded random delay; messages to
//     crashed processes vanish. Only crash process failures exist in this
//     model (§3 considers Consensus under crash failures).
//
//ftss:det scheduler steps are a pure function of seed and inputs
package async

import (
	"fmt"
	"math/rand"

	"ftss/internal/failure"
	"ftss/internal/proc"
)

// Time is virtual time in abstract microseconds.
type Time int64

// Millisecond is a convenience unit for configuring delays.
const Millisecond Time = 1000

// Context is a process's handle to the engine during a callback.
type Context interface {
	// Now returns the current virtual time.
	Now() Time
	// Send schedules delivery of payload to the process `to` after a
	// random link delay. Sending to self is allowed.
	//
	// Payloads are immutable once sent: a Broadcast hands every receiver
	// the same boxed value, and a sender may send one boxed value again on
	// later steps while its content is unchanged. Neither a sender nor a
	// receiver may write through a payload after Send.
	Send(to proc.ID, payload any)
	// Broadcast sends payload to every process, including the sender.
	Broadcast(payload any)
	// Rand returns the engine's deterministic random source, for
	// protocols that randomize (none of the paper's do, but examples may).
	Rand() *rand.Rand
}

// Proc is an asynchronous protocol instance.
type Proc interface {
	// ID returns the process identifier.
	ID() proc.ID
	// OnTick is invoked on the engine's step schedule.
	OnTick(ctx Context)
	// OnMessage is invoked when a message is delivered.
	OnMessage(ctx Context, from proc.ID, payload any)
}

// Config parameterizes an Engine.
type Config struct {
	// Seed drives all randomness (delays, tick jitter).
	Seed int64
	// TickEvery is the base interval between a process's steps.
	// Default 1ms.
	TickEvery Time
	// MinDelay and MaxDelay bound message delays. Defaults 1ms and 5ms.
	MinDelay, MaxDelay Time
	// GST is the Global Stabilization Time of the partial-synchrony model
	// [DLS88]: before it, message delays range over
	// [MinDelay, PreGSTMaxDelay] instead. Zero means the system is
	// synchronous-delay from the start.
	GST Time
	// PreGSTMaxDelay bounds delays before GST (default 10×MaxDelay).
	PreGSTMaxDelay Time
	// CrashAt schedules crash failures: the process takes no steps and
	// receives nothing at or after its crash time.
	CrashAt map[proc.ID]Time
}

func (c Config) withDefaults() Config {
	if c.TickEvery <= 0 {
		c.TickEvery = Millisecond
	}
	if c.MinDelay <= 0 {
		c.MinDelay = Millisecond
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = 5 * Millisecond
	}
	if c.GST > 0 && c.PreGSTMaxDelay < c.MaxDelay {
		c.PreGSTMaxDelay = 10 * c.MaxDelay
	}
	return c
}

// span is the largest offset from now at which the engine ever schedules
// an event: a tick's successor, or a delivery at its longest delay.
// MinDelay is included because withDefaults can leave MaxDelay below it.
func (c Config) span() Time {
	s := max(c.TickEvery, c.MinDelay, c.MaxDelay)
	if c.GST > 0 {
		s = max(s, c.PreGSTMaxDelay)
	}
	return s
}

type eventKind int32

const (
	evTick eventKind = iota + 1
	evDeliver
)

// event is one queued tick or delivery, held by value in the queue's
// slab. Events of equal time pop in push order, which the queue keeps by
// where it links each push, so no sequence number is stored.
type event struct {
	at      Time
	kind    eventKind
	next    int32 // the queue's link: next in the slot's list, or in the free list
	to      proc.ID
	from    proc.ID
	payload any
}

// Engine is the discrete-event asynchronous simulator.
type Engine struct {
	cfg     Config
	procs   []Proc
	byID    []Proc    // indexed by process ID
	ctxs    []procCtx // one per process, indexed by ID, reused for every callback
	rng     *rand.Rand
	now     Time
	span    Time // see Config.span
	pq      eventRing
	crashed proc.Set
	// stats
	delivered uint64
	sent      uint64
}

// NewEngine builds an engine over the given processes. IDs must be dense
// 0..n−1 and unique.
func NewEngine(procs []Proc, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	byID := make([]Proc, len(procs))
	for _, p := range procs {
		id := p.ID()
		if int(id) < 0 || int(id) >= len(procs) {
			return nil, fmt.Errorf("process id %v out of range [0,%d)", id, len(procs))
		}
		if byID[id] != nil {
			return nil, fmt.Errorf("duplicate process id %v", id)
		}
		byID[id] = p
	}
	e := &Engine{
		cfg:     cfg,
		procs:   procs,
		byID:    byID,
		ctxs:    make([]procCtx, len(procs)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		span:    cfg.span(),
		crashed: proc.NewSet(),
	}
	e.pq.init(e.span)
	for i := range e.ctxs {
		e.ctxs[i] = procCtx{e: e, self: proc.ID(i)}
	}
	// Stagger initial ticks so processes do not step in lockstep.
	for _, p := range procs {
		at := Time(1) + Time(e.rng.Int63n(int64(cfg.TickEvery)))
		e.push(event{at: at, kind: evTick, to: p.ID()})
	}
	return e, nil
}

// MustNewEngine panics on configuration errors.
func MustNewEngine(procs []Proc, cfg Config) *Engine {
	e, err := NewEngine(procs, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// N returns the number of processes.
func (e *Engine) N() int { return len(e.procs) }

// Crashed returns the set of processes crashed so far.
func (e *Engine) Crashed() proc.Set { return e.crashed.Clone() }

// Correct returns the set of processes that never crash under the
// configured schedule.
func (e *Engine) Correct() proc.Set {
	c := proc.NewSet()
	for _, p := range e.procs {
		if _, dies := e.cfg.CrashAt[p.ID()]; !dies {
			c.Add(p.ID())
		}
	}
	return c
}

// MessagesSent returns the number of messages sent so far.
func (e *Engine) MessagesSent() uint64 { return e.sent }

// MessagesDelivered returns the number of messages delivered so far.
func (e *Engine) MessagesDelivered() uint64 { return e.delivered }

// Corrupt injects a systemic failure into every process in ids that
// implements failure.Corruptible.
func (e *Engine) Corrupt(rng *rand.Rand, ids proc.Set) int {
	n := 0
	for _, id := range ids.Sorted() {
		if !e.has(id) {
			continue
		}
		if c, ok := e.byID[id].(failure.Corruptible); ok {
			c.Corrupt(rng)
			n++
		}
	}
	return n
}

// CorruptEverything strikes every process.
func (e *Engine) CorruptEverything(rng *rand.Rand) int {
	return e.Corrupt(rng, proc.Universe(len(e.procs)))
}

// has reports whether id names one of the engine's processes.
func (e *Engine) has(id proc.ID) bool { return id >= 0 && int(id) < len(e.byID) }

// push queues ev. An event outside [now, now+span] would break the
// queue's window invariant, and only an engine bug can schedule one.
func (e *Engine) push(ev event) {
	if ev.at < e.now || ev.at > e.now+e.span {
		panic(fmt.Sprintf("async: event at %d outside the window [%d, %d]", ev.at, e.now, e.now+e.span))
	}
	e.pq.push(ev)
}

func (e *Engine) isCrashedAt(p proc.ID, t Time) bool {
	ct, ok := e.cfg.CrashAt[p]
	return ok && t >= ct
}

// Step processes the next event. It returns false when no events remain
// (all processes crashed).
func (e *Engine) Step() bool { return e.step(e.pq.head(e.now)) }

// step processes the event at slab index i, the queue's head, or the
// first event after it that does not go to a crashed process. It returns
// false when the queue runs out first.
func (e *Engine) step(i int32) bool {
	for ; i != 0; i = e.pq.head(e.now) {
		ev := e.pq.pop(i)
		e.now = ev.at
		if e.isCrashedAt(ev.to, ev.at) {
			e.crashed.Add(ev.to)
			continue // crashed processes neither step nor receive
		}
		ctx := &e.ctxs[ev.to]
		switch ev.kind {
		case evTick:
			e.byID[ev.to].OnTick(ctx)
			next := ev.at + e.cfg.TickEvery
			if !e.isCrashedAt(ev.to, next) {
				e.push(event{at: next, kind: evTick, to: ev.to})
			} else {
				e.crashed.Add(ev.to)
			}
		case evDeliver:
			e.delivered++
			e.byID[ev.to].OnMessage(ctx, ev.from, ev.payload)
		}
		return true
	}
	return false
}

// RunUntil advances virtual time to t (processing every event scheduled
// strictly before or at t).
func (e *Engine) RunUntil(t Time) {
	for i := e.pq.head(e.now); i != 0 && e.pq.slab[i].at <= t; i = e.pq.head(e.now) {
		e.step(i)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances virtual time by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

type procCtx struct {
	e    *Engine
	self proc.ID
}

func (c *procCtx) Now() Time        { return c.e.now }
func (c *procCtx) Rand() *rand.Rand { return c.e.rng }

func (c *procCtx) Send(to proc.ID, payload any) {
	e := c.e
	if !e.has(to) {
		return
	}
	e.sent++
	maxDelay := e.cfg.MaxDelay
	if e.cfg.GST > 0 && e.now < e.cfg.GST {
		maxDelay = e.cfg.PreGSTMaxDelay
	}
	delay := e.cfg.MinDelay
	if span := int64(maxDelay - e.cfg.MinDelay); span > 0 {
		delay += Time(e.rng.Int63n(span + 1))
	}
	e.push(event{at: e.now + delay, kind: evDeliver, to: to, from: c.self, payload: payload})
}

func (c *procCtx) Broadcast(payload any) {
	for _, p := range c.e.procs {
		c.Send(p.ID(), payload)
	}
}
