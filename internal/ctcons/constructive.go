package ctcons

import (
	"math/rand"

	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// HeartbeatProc is the fully constructive, oracle-free consensus stack:
// a heartbeat/adaptive-timeout detector for the partial-synchrony model
// (detector.TimeoutCore), the paper's Figure 4 ◊W→◊S transform, and the
// §3 stabilizing consensus, composed into one process. Every consensus
// message doubles as a heartbeat (the timeout core observes all traffic),
// so the detector costs only one extra broadcast per tick.
type HeartbeatProc struct {
	core *detector.TimeoutCore
	cons *Proc
}

var _ async.Proc = (*HeartbeatProc)(nil)

// NewConstructiveProcs builds n consensus processes whose suspicions come
// from heartbeats and adaptive timeouts instead of a simulated oracle.
// baseTimeout should exceed the engine's tick interval plus the post-GST
// delay bound for prompt detection; increment tunes how fast the detector
// adapts to pre-GST chaos.
func NewConstructiveProcs(n int, inputs []Value, cfg Config,
	baseTimeout, increment async.Time) ([]*HeartbeatProc, []async.Proc) {
	hs := make([]*HeartbeatProc, n)
	aps := make([]async.Proc, n)
	for i := 0; i < n; i++ {
		hs[i] = NewConstructiveProc(proc.ID(i), n, inputs[i], cfg, baseTimeout, increment)
		aps[i] = hs[i]
	}
	return hs, aps
}

// NewConstructiveProc builds process id of an n-process constructive
// stack. The timeout core is the ◊W its own Figure 4 transform consults
// (the transform only ever asks about the local process), so one member
// needs nothing from the others and can live alone in an OS process,
// reaching the other n-1 over a transport.
func NewConstructiveProc(id proc.ID, n int, input Value, cfg Config,
	baseTimeout, increment async.Time) *HeartbeatProc {
	core := detector.NewTimeoutCore(id, n, baseTimeout, increment)
	return &HeartbeatProc{
		core: core,
		cons: New(id, n, input, cfg, core),
	}
}

// ID implements async.Proc.
func (h *HeartbeatProc) ID() proc.ID { return h.cons.ID() }

// OnTick implements async.Proc.
func (h *HeartbeatProc) OnTick(ctx async.Context) {
	h.core.OnTick(ctx)
	h.cons.OnTick(ctx)
}

// OnMessage implements async.Proc: every delivery feeds the timeout core;
// heartbeats stop there, everything else continues into consensus.
func (h *HeartbeatProc) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if h.core.OnMessage(ctx, from, payload) {
		return
	}
	h.cons.OnMessage(ctx, from, payload)
}

// Decision exposes the consensus register.
func (h *HeartbeatProc) Decision() (Value, uint64, bool) { return h.cons.Decision() }

// Consensus exposes the inner consensus process.
func (h *HeartbeatProc) Consensus() *Proc { return h.cons }

// Core exposes the timeout detector layer.
func (h *HeartbeatProc) Core() *detector.TimeoutCore { return h.core }

// Suspects implements detector.SuspectSource (the ◊S output).
func (h *HeartbeatProc) Suspects() proc.Set { return h.cons.Suspects() }

// Corrupt implements failure.Corruptible: all three layers.
func (h *HeartbeatProc) Corrupt(rng *rand.Rand) {
	h.core.Corrupt(rng)
	h.cons.Corrupt(rng)
}
