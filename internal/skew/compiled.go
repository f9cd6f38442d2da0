package skew

import (
	"math/rand"

	"ftss/internal/core"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

// Proc is the lag-adapted compiled protocol Π⁺: the Figure 3
// superimposition with each protocol round of Π double-stepped over a
// window of two engine rounds, so that a window-opening broadcast reaches
// every receiver within the window even when the environment delays it by
// one round.
//
// The round variable still advances one per ENGINE round (the Figure 1
// component is unchanged — max ignores stale clocks); window w spans
// clocks 2w and 2w+1, protocol round k = (w mod final_round)+1, and the
// iteration index is clock div (2·final_round), so the execution is
// checkable with superimpose.RepeatedConsensus{FinalRound: 2·final_round}.
//
// The suspect rule is evaluated per window: q is suspected when no message
// from q tagged with either of the window's clocks arrived during the
// window. A correct, clock-agreed q always lands in the window (its
// first-half broadcast is at worst one round late), so only genuinely
// faulty or round-disagreeing processes are filtered — the same guarantee
// the perfectly-synchronous compiler gets per round.
type Proc struct {
	id    proc.ID
	n     int
	pi    fullinfo.Protocol
	input superimpose.InputSource

	clock    uint64
	state    fullinfo.State
	suspects proc.Set
	decided  *superimpose.Decision

	stash       map[proc.ID]fullinfo.State
	stashWindow uint64
}

var _ round.Process = (*Proc)(nil)

// New builds a lag-adapted Π⁺ process in the good initial state.
func New(pi fullinfo.Protocol, id proc.ID, n int, input superimpose.InputSource) *Proc {
	return &Proc{
		id:       id,
		n:        n,
		pi:       pi,
		input:    input,
		state:    pi.Init(id, n, input(id, 0)),
		suspects: proc.NewSet(),
		stash:    make(map[proc.ID]fullinfo.State),
	}
}

// Procs builds n processes.
func Procs(pi fullinfo.Protocol, n int, input superimpose.InputSource) ([]*Proc, []round.Process) {
	cs := make([]*Proc, n)
	ps := make([]round.Process, n)
	for i := range cs {
		cs[i] = New(pi, proc.ID(i), n, input)
		ps[i] = cs[i]
	}
	return cs, ps
}

// TileWidth is the checker tile for this adaptation: 2·final_round engine
// rounds per iteration of Π.
func TileWidth(pi fullinfo.Protocol) int { return 2 * pi.FinalRound() }

// ID implements round.Process.
func (p *Proc) ID() proc.ID { return p.id }

// Clock returns the round variable.
func (p *Proc) Clock() uint64 { return p.clock }

// LastDecision returns the latest completed iteration's output.
func (p *Proc) LastDecision() (superimpose.Decision, bool) {
	if p.decided == nil {
		return superimpose.Decision{}, false
	}
	return *p.decided, true
}

// StartRound implements round.Process.
func (p *Proc) StartRound() any {
	return superimpose.Payload{State: p.state.Clone(), Clock: p.clock}
}

// EndRound implements round.Process.
func (p *Proc) EndRound(received []round.Message) {
	fr := uint64(p.pi.FinalRound())
	window := p.clock / 2
	if window != p.stashWindow {
		p.stash = make(map[proc.ID]fullinfo.State)
		p.stashWindow = window
	}

	type envelope struct {
		state fullinfo.State
		clock uint64
	}
	got := make(map[proc.ID]envelope, len(received))
	for _, m := range received {
		if pl, ok := m.Payload.(superimpose.Payload); ok {
			got[m.From] = envelope{state: pl.State, clock: pl.Clock}
		}
	}

	// Stash window-tagged full-information states.
	for from, env := range got {
		if env.clock/2 == window && env.state != nil {
			p.stash[from] = env.state
		}
	}

	// Second half of the window: run Π's protocol round.
	if p.clock%2 == 1 {
		s := p.suspects.Clone()
		for q := proc.ID(0); int(q) < p.n; q++ {
			if _, ok := p.stash[q]; !ok {
				s.Add(q)
			}
		}
		msgs := make([]fullinfo.StateMsg, 0, len(p.stash))
		for q := proc.ID(0); int(q) < p.n; q++ {
			if st, ok := p.stash[q]; ok && !s.Has(q) {
				msgs = append(msgs, fullinfo.StateMsg{From: q, State: st})
			}
		}
		k := int(window%fr) + 1
		p.state = p.pi.Step(p.id, p.n, p.state, msgs, k)
		if k == int(fr) {
			v, ok := p.pi.Output(p.state)
			p.decided = &superimpose.Decision{
				Iteration: p.clock / (2 * fr),
				Value:     v,
				OK:        ok,
			}
		}
		p.suspects = s
	}

	// Figure 1 clock update, every engine round, over ALL received tags.
	max := p.clock
	for _, env := range got {
		if env.clock > max {
			max = env.clock
		}
	}
	p.clock = max + 1

	// Iteration boundary.
	if p.clock%(2*fr) == 0 {
		iter := p.clock / (2 * fr)
		p.state = p.pi.Init(p.id, p.n, p.input(p.id, iter))
		p.suspects = proc.NewSet()
		p.stash = make(map[proc.ID]fullinfo.State)
		p.stashWindow = p.clock / 2
	}
}

// Snapshot implements round.Process.
func (p *Proc) Snapshot() round.Snapshot {
	var dec any
	if p.decided != nil {
		dec = *p.decided
	}
	return round.Snapshot{
		Clock: p.clock,
		State: superimpose.Meta{
			ProtocolRound: int((p.clock/2)%uint64(p.pi.FinalRound())) + 1,
			Suspects:      p.suspects.Clone(),
			State:         p.state.Clone(),
		},
		Decided: dec,
	}
}

// Corrupt implements failure.Corruptible.
func (p *Proc) Corrupt(rng *rand.Rand) {
	p.clock = uint64(rng.Int63n(superimpose.MaxCorruptClock))
	p.state = p.pi.Corrupt(rng, p.id, p.n)
	p.suspects = proc.NewSet()
	for q := 0; q < p.n; q++ {
		if rng.Intn(2) == 0 {
			p.suspects.Add(proc.ID(q))
		}
	}
	p.stash = make(map[proc.ID]fullinfo.State)
	p.stashWindow = p.clock / 2
	p.decided = nil
}

// AgreementWithinSkew is the relaxed Assumption 1 appropriate for
// imperfect synchrony with lag bound 1: in every round of the window the
// correct processes' round variables span at most Skew, and each correct
// process's variable advances by at least 1 and at most 1+Skew per round.
// With Skew = 0 it degenerates to core.RoundAgreement.
//
// Exact agreement is unattainable under adversarial lag (a permanently
// late link holds a 1-gap open forever — see the tests), which is why the
// adapted problem statement must build the skew in; the experiments show
// random lag reaches exact agreement anyway (equality is absorbing: with
// unconditional self-delivery, equal clocks take equal maxima).
type AgreementWithinSkew struct {
	Skew uint64
}

var _ core.Problem = AgreementWithinSkew{}

// Name implements core.Problem.
func (a AgreementWithinSkew) Name() string { return "round-agreement-within-skew" }

// NewWindow implements core.Problem.
func (a AgreementWithinSkew) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return &skewWindow{h: h, lo: lo, faulty: faulty, skew: a.Skew}
}

type skewWindow struct {
	h      *history.History
	lo     int
	faulty proc.Set
	skew   uint64
}

// Extend implements core.WindowChecker: the rate clause of round hi-1,
// which reads the clocks at the start of round hi and so is enforced only
// once hi is inside the window, then the spread clause of round hi.
func (w *skewWindow) Extend(hi int) error {
	h, faulty := w.h, w.faulty
	if hi > w.lo {
		r := hi - 1
		for _, q := range h.AliveAt(r).Sorted() {
			if faulty.Has(q) {
				continue
			}
			before, ok1 := h.ClockAt(r, q)
			after, ok2 := h.ClockAt(hi, q)
			if !ok1 || !ok2 {
				continue
			}
			if after < before+1 || after > before+1+w.skew {
				return &core.Violation{
					Problem: "rate-within-skew",
					Round:   r,
					Detail:  "clock step outside [1, 1+skew]",
				}
			}
		}
	}
	var min, max uint64
	first := true
	for _, q := range h.AliveAt(hi).Sorted() {
		if faulty.Has(q) {
			continue
		}
		c, ok := h.ClockAt(hi, q)
		if !ok {
			continue
		}
		if first {
			min, max, first = c, c, false
			continue
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if !first && max-min > w.skew {
		return &core.Violation{
			Problem: "agreement-within-skew",
			Round:   hi,
			Detail:  "clock spread exceeds the skew bound",
		}
	}
	return nil
}
