package detector

import (
	"math/rand"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// Heartbeat is the TimeoutCore's periodic I-am-alive broadcast.
type Heartbeat struct{}

// MaxCorruptTimeout bounds corrupted timeout values; an unboundedly
// corrupted timeout would delay completeness arbitrarily (the eventual
// guarantee would still hold, but not within a simulable horizon — the
// same feasibility bound applied to every counter in this module).
const MaxCorruptTimeout = async.Time(200) * async.Millisecond

// TimeoutCore is a constructive failure detector for the partial-synchrony
// model [DLS88]: every process heartbeats on each step, and q is suspected
// when nothing has been heard from it for an adaptive timeout. When a
// suspicion is refuted (a message from a currently-suspected process
// arrives), that process's timeout grows — so after the global
// stabilization time the timeouts exceed the true delay bound and the
// detector becomes eventually perfect, which is more than the ◊W the
// paper's Figure 4 transform requires. Feeding it through the transform
// yields a fully constructive, oracle-free ◊S stack.
//
// Self-stabilization: all state is locally checkable or self-correcting.
// A last-heard time in the future is clamped to now (sanitization); a
// corrupted timeout is clamped to the feasibility bound and otherwise
// re-learned; a corrupted suspicion is refuted by the next heartbeat.
type TimeoutCore struct {
	self        proc.ID
	n           int
	baseTimeout async.Time
	increment   async.Time

	lastHeard []async.Time
	timeout   []async.Time
	primed    []bool // whether lastHeard is meaningful yet
}

// NewTimeoutCore builds the detector for process self. baseTimeout should
// exceed the tick interval; increment is added on every refuted suspicion.
func NewTimeoutCore(self proc.ID, n int, baseTimeout, increment async.Time) *TimeoutCore {
	c := &TimeoutCore{
		self:        self,
		n:           n,
		baseTimeout: baseTimeout,
		increment:   increment,
		lastHeard:   make([]async.Time, n),
		timeout:     make([]async.Time, n),
		primed:      make([]bool, n),
	}
	for i := range c.timeout {
		c.timeout[i] = baseTimeout
	}
	return c
}

// OnTick broadcasts a heartbeat and sanitizes local state.
func (c *TimeoutCore) OnTick(ctx async.Context) {
	now := ctx.Now()
	for q := 0; q < c.n; q++ {
		if c.lastHeard[q] > now {
			c.lastHeard[q] = now // locally checkable: nothing is heard from the future
		}
		if c.timeout[q] > MaxCorruptTimeout {
			c.timeout[q] = MaxCorruptTimeout
		}
		if c.timeout[q] < c.baseTimeout {
			c.timeout[q] = c.baseTimeout
		}
	}
	ctx.Broadcast(Heartbeat{})
}

// Observe notes traffic from q at time now. Any message counts as a
// heartbeat (the host should call this for every delivery); a refuted
// suspicion grows q's timeout.
func (c *TimeoutCore) Observe(now async.Time, q proc.ID) {
	if int(q) < 0 || int(q) >= c.n {
		return
	}
	if c.primed[q] && c.suspectedAt(now, q) {
		c.timeout[q] += c.increment
		if c.timeout[q] > MaxCorruptTimeout {
			c.timeout[q] = MaxCorruptTimeout
		}
	}
	c.lastHeard[q] = now
	c.primed[q] = true
}

// OnMessage consumes heartbeats and observes any traffic. It reports
// whether the payload was a heartbeat (so hosts can stop dispatching it).
func (c *TimeoutCore) OnMessage(ctx async.Context, from proc.ID, payload any) bool {
	c.Observe(ctx.Now(), from)
	_, isHB := payload.(Heartbeat)
	return isHB
}

func (c *TimeoutCore) suspectedAt(now async.Time, q proc.ID) bool {
	if q == c.self {
		return false
	}
	if !c.primed[q] {
		// Nothing heard yet since start/corruption: give q one timeout
		// from time zero.
		return now > c.timeout[q]
	}
	return now-c.lastHeard[q] > c.timeout[q]
}

// Suspects returns the processes currently timed out.
func (c *TimeoutCore) Suspects(now async.Time) proc.Set {
	out := proc.NewSet()
	c.Detect(now, c.self, out)
	return out
}

var _ WeakDetector = (*TimeoutCore)(nil)

// Detect implements WeakDetector for the core's own process. The Figure 4
// transform only ever consults the local detector (Detect(now, self, …)),
// so a core is its process's ◊W and answers nothing for any other process.
func (c *TimeoutCore) Detect(now async.Time, p proc.ID, out proc.Set) {
	if p != c.self {
		return
	}
	for q := 0; q < c.n; q++ {
		if c.suspectedAt(now, proc.ID(q)) {
			out.Add(proc.ID(q))
		}
	}
}

// Timeout exposes q's current adaptive timeout (for tests).
func (c *TimeoutCore) Timeout(q proc.ID) async.Time { return c.timeout[q] }

// Corrupt implements failure.Corruptible.
func (c *TimeoutCore) Corrupt(rng *rand.Rand) {
	for q := 0; q < c.n; q++ {
		c.lastHeard[q] = async.Time(rng.Int63n(int64(10 * MaxCorruptTimeout)))
		c.timeout[q] = async.Time(rng.Int63n(int64(2 * MaxCorruptTimeout)))
		c.primed[q] = rng.Intn(2) == 0
	}
}

// TimeoutProc runs a TimeoutCore plus the Figure 4 transform as a
// standalone async.Proc: the fully constructive ◊S detector.
type TimeoutProc struct {
	core   *TimeoutCore
	strong *StrongCore
}

var _ async.Proc = (*TimeoutProc)(nil)

// NewTimeoutProcs builds n constructive detector processes, each core
// wired straight into its own process's transform.
func NewTimeoutProcs(n int, baseTimeout, increment async.Time) []*TimeoutProc {
	out := make([]*TimeoutProc, n)
	for i := 0; i < n; i++ {
		core := NewTimeoutCore(proc.ID(i), n, baseTimeout, increment)
		out[i] = &TimeoutProc{
			core:   core,
			strong: NewStrongCore(proc.ID(i), n, core),
		}
	}
	return out
}

// ID implements async.Proc.
func (p *TimeoutProc) ID() proc.ID { return p.strong.self }

// OnTick implements async.Proc.
func (p *TimeoutProc) OnTick(ctx async.Context) {
	p.core.OnTick(ctx)
	p.strong.OnTick(ctx)
}

// OnMessage implements async.Proc.
func (p *TimeoutProc) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if p.core.OnMessage(ctx, from, payload) {
		return
	}
	p.strong.OnMessage(ctx, from, payload)
}

// Suspects returns the ◊S output.
func (p *TimeoutProc) Suspects() proc.Set { return p.strong.Suspects() }

// Core exposes the timeout layer.
func (p *TimeoutProc) Core() *TimeoutCore { return p.core }

// Corrupt implements failure.Corruptible: both layers.
func (p *TimeoutProc) Corrupt(rng *rand.Rand) {
	p.core.Corrupt(rng)
	p.strong.Corrupt(rng)
}
