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

type eventKind int

const (
	evTick eventKind = iota + 1
	evDeliver
)

type event struct {
	at      Time
	seq     uint64 // tie-break for determinism
	kind    eventKind
	to      proc.ID
	from    proc.ID
	payload any
}

// before is the queue order: time, then push sequence. Sequence numbers
// are unique, so the order is total and the pop sequence does not depend
// on how the heap happens to be laid out.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events under before. Events live by
// value in the slice, so scheduling one allocates nothing once the slice
// has grown to the queue's high-water mark.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event. The heap must be non-empty.
// The vacated slot is zeroed so the slice retains no payload.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Engine is the discrete-event asynchronous simulator.
type Engine struct {
	cfg     Config
	procs   []Proc
	byID    []Proc    // indexed by process ID
	ctxs    []procCtx // one per process, indexed by ID, reused for every callback
	rng     *rand.Rand
	now     Time
	seq     uint64
	pq      eventHeap
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
		crashed: proc.NewSet(),
	}
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

func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.pq.push(ev)
}

func (e *Engine) isCrashedAt(p proc.ID, t Time) bool {
	ct, ok := e.cfg.CrashAt[p]
	return ok && t >= ct
}

// Step processes the next event. It returns false when no events remain
// (all processes crashed).
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
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
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
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
