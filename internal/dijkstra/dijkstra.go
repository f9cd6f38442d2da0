// Package dijkstra implements the protocol that founded self-stabilization
// — Dijkstra's K-state token ring [Dij74], which the paper's introduction
// takes as the origin of the systemic-failure model ("the concept of
// self-stabilization was first introduced by Dijkstra").
//
// n machines sit on a unidirectional ring, each holding a counter in
// [0, K). The bottom machine p0 is privileged when its counter equals its
// predecessor's (machine p_{n−1}) and moves by incrementing mod K; every
// other machine is privileged when its counter differs from its
// predecessor's and moves by copying it. A state is legitimate when
// exactly one machine is privileged; Dijkstra's theorem is that from ANY
// initial state the ring reaches a legitimate state and the single
// privilege then circulates forever.
//
// The ring runs on the synchronous round engine (all privileged machines
// move simultaneously — the synchronous daemon), with each machine
// broadcasting its counter and reading only its ring predecessor's. The
// tests verify stabilization EXHAUSTIVELY over every possible initial
// state for small rings, and the MutualExclusion predicate plugs into
// core.CheckSS — Definition 2.2, the paper's formalization of exactly this
// protocol's guarantee.
//
//ftss:det exhaustive small-ring sweeps must be reproducible per seed
package dijkstra

import (
	"fmt"
	"math/rand"

	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// Announce carries a machine's counter.
type Announce struct {
	Val uint64
}

// Proc is one machine of the K-state ring.
type Proc struct {
	id   proc.ID
	n    int
	k    uint64
	val  uint64
	pred uint64 // predecessor's counter as of the last round
	seen bool
}

var _ round.Process = (*Proc)(nil)

// New builds machine id of an n-machine ring over counters mod K. For
// stabilization under the synchronous daemon K must be at least n+1;
// smaller K is accepted (the tests use it to exhibit non-stabilizing
// rings).
func New(id proc.ID, n int, k uint64) *Proc {
	if k < 2 {
		k = 2
	}
	return &Proc{id: id, n: n, k: k}
}

// Ring builds the whole ring.
func Ring(n int, k uint64) ([]*Proc, []round.Process) {
	cs := make([]*Proc, n)
	ps := make([]round.Process, n)
	for i := range cs {
		cs[i] = New(proc.ID(i), n, k)
		ps[i] = cs[i]
	}
	return cs, ps
}

// ID implements round.Process.
func (p *Proc) ID() proc.ID { return p.id }

// Val returns the machine's counter.
func (p *Proc) Val() uint64 { return p.val }

// StartRound implements round.Process.
func (p *Proc) StartRound() any { return Announce{Val: p.val} }

// EndRound implements round.Process: read the ring predecessor, move if
// privileged.
func (p *Proc) EndRound(received []round.Message) {
	predID := proc.ID((int(p.id) + p.n - 1) % p.n)
	for _, m := range received {
		if m.From == predID {
			if a, ok := m.Payload.(Announce); ok {
				p.pred = a.Val % p.k
				p.seen = true
			}
		}
	}
	if !p.seen {
		return
	}
	if p.id == 0 {
		if p.val == p.pred {
			p.val = (p.val + 1) % p.k
		}
	} else {
		if p.val != p.pred {
			p.val = p.pred
		}
	}
}

// Snapshot implements round.Process: the counter doubles as the snapshot
// clock so history-based predicates can read it.
func (p *Proc) Snapshot() round.Snapshot {
	return round.Snapshot{Clock: p.val, State: p.val}
}

// Corrupt implements failure.Corruptible: an arbitrary counter.
func (p *Proc) Corrupt(rng *rand.Rand) {
	p.val = uint64(rng.Int63()) % p.k
}

// CorruptTo sets the counter directly (mod K).
func (p *Proc) CorruptTo(v uint64) { p.val = v % p.k }

// Privileged reports which machines are privileged in the state vector
// vals (counters in ring order) for an n-ring mod K.
func Privileged(vals []uint64, k uint64) proc.Set {
	n := len(vals)
	out := proc.NewSet()
	if n == 0 {
		return out
	}
	if vals[0]%k == vals[n-1]%k {
		out.Add(0)
	}
	for i := 1; i < n; i++ {
		if vals[i]%k != vals[i-1]%k {
			out.Add(proc.ID(i))
		}
	}
	return out
}

// MutualExclusion is the ring's problem predicate for core.CheckSS
// (Definition 2.2): in every round of the window, exactly one machine is
// privileged. (Assumption 1 does not apply — the ring has no round
// variables; its Σ constrains the privilege structure instead.)
type MutualExclusion struct {
	K uint64
}

var _ core.Problem = MutualExclusion{}

// Name implements core.Problem.
func (m MutualExclusion) Name() string { return "dijkstra-mutual-exclusion" }

// NewWindow implements core.Problem.
func (m MutualExclusion) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return core.PerRound(func(r int) error { return m.checkRound(h, r) })
}

func (m MutualExclusion) checkRound(h *history.History, r int) error {
	vals := make([]uint64, h.N())
	for i := 0; i < h.N(); i++ {
		c, ok := h.ClockAt(r, proc.ID(i))
		if !ok {
			return &core.Violation{
				Problem: "dijkstra",
				Round:   r,
				Detail:  "machine missing (the ring model has no process failures)",
			}
		}
		vals[i] = c
	}
	if priv := Privileged(vals, m.K); priv.Len() != 1 {
		return &core.Violation{
			Problem: "mutual-exclusion",
			Round:   r,
			Detail:  fmt.Sprintf("%d privileges %s in state %v", priv.Len(), priv, vals),
		}
	}
	return nil
}
