package round

import (
	"math/rand"
	"testing"

	"ftss/internal/failure"
	"ftss/internal/proc"
)

// echoProc broadcasts its ID every round and remembers who it heard from.
type echoProc struct {
	id       proc.ID
	heard    []proc.Set // per executed round
	silent   bool
	rounds   int
	corrupts int
}

func (p *echoProc) ID() proc.ID { return p.id }

func (p *echoProc) StartRound() any {
	if p.silent {
		return nil
	}
	return int(p.id)
}

func (p *echoProc) EndRound(received []Message) {
	s := proc.NewSet()
	for _, m := range received {
		s.Add(m.From)
	}
	p.heard = append(p.heard, s)
	p.rounds++
}

func (p *echoProc) Snapshot() Snapshot {
	return Snapshot{Clock: uint64(p.rounds), State: p.rounds}
}

func (p *echoProc) Corrupt(*rand.Rand) { p.corrupts++ }

func newEchos(n int) ([]*echoProc, []Process) {
	eps := make([]*echoProc, n)
	ps := make([]Process, n)
	for i := range eps {
		eps[i] = &echoProc{id: proc.ID(i)}
		ps[i] = eps[i]
	}
	return eps, ps
}

type recordObserver struct{ obs []Observation }

// ObserveRound deep-copies the Observation: the engine owns and reuses
// the buffers, so a retaining observer must copy what it keeps.
func (r *recordObserver) ObserveRound(o Observation) {
	c := Observation{
		Round:     o.Round,
		Alive:     o.Alive.Clone(),
		Start:     make(map[proc.ID]Snapshot, len(o.Start)),
		Delivered: make(map[proc.ID][]Message, len(o.Delivered)),
		End:       make(map[proc.ID]Snapshot, len(o.End)),
		Deviated:  o.Deviated.Clone(),
	}
	for _, p := range o.Alive.Sorted() {
		if s, ok := o.Start[p]; ok {
			c.Start[p] = s
		}
		if msgs, ok := o.Delivered[p]; ok {
			c.Delivered[p] = append([]Message(nil), msgs...)
		}
		if s, ok := o.End[p]; ok {
			c.End[p] = s
		}
	}
	r.obs = append(r.obs, c)
}

func TestNewEngineValidation(t *testing.T) {
	_, ps := newEchos(2)
	if _, err := NewEngine(ps, nil); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := []Process{&echoProc{id: 0}, &echoProc{id: 0}}
	if _, err := NewEngine(bad, nil); err == nil {
		t.Error("duplicate IDs accepted")
	}

	oor := []Process{&echoProc{id: 5}}
	if _, err := NewEngine(oor, nil); err == nil {
		t.Error("out-of-range ID accepted")
	}
}

func TestFullDeliveryNoFailures(t *testing.T) {
	eps, ps := newEchos(3)
	e := MustNewEngine(ps, nil)
	e.Run(4)

	all := proc.Universe(3)
	for _, p := range eps {
		if p.rounds != 4 {
			t.Fatalf("%v executed %d rounds, want 4", p.id, p.rounds)
		}
		for r, heard := range p.heard {
			if !heard.Equal(all) {
				t.Errorf("%v round %d heard %v, want %v", p.id, r+1, heard, all)
			}
		}
	}
}

func TestSilentProcessSendsNothing(t *testing.T) {
	eps, ps := newEchos(3)
	eps[1].silent = true
	e := MustNewEngine(ps, nil)
	e.Step()

	want := proc.NewSet(0, 2)
	for _, p := range eps {
		if !p.heard[0].Equal(want) {
			t.Errorf("%v heard %v, want %v", p.id, p.heard[0], want)
		}
	}
}

func TestSendOmission(t *testing.T) {
	eps, ps := newEchos(3)
	adv := failure.NewScripted(0).DropSendAt(1, 0, 2)
	e := MustNewEngine(ps, adv)
	e.Step()

	if !eps[1].heard[0].Has(0) {
		t.Error("p1 should still hear p0")
	}
	if eps[2].heard[0].Has(0) {
		t.Error("p2 must not hear p0 (send omission)")
	}
	if !eps[0].heard[0].Has(0) {
		t.Error("p0 must receive its own broadcast despite omissions (footnote 1)")
	}
}

func TestReceiveOmission(t *testing.T) {
	eps, ps := newEchos(3)
	adv := failure.NewScripted(2).DropRecvAt(1, 0, 2)
	e := MustNewEngine(ps, adv)
	e.Step()

	if eps[2].heard[0].Has(0) {
		t.Error("p2 must not receive from p0 (receive omission)")
	}
	if !eps[2].heard[0].Has(1) || !eps[2].heard[0].Has(2) {
		t.Error("p2 should still hear p1 and itself")
	}
}

func TestOnlyDesignatedFaultyCanDeviate(t *testing.T) {
	// The adversary scripts drops for p0 but p0 is NOT in the faulty set;
	// the engine must ignore them.
	eps, ps := newEchos(2)
	adv := failure.NewScripted(1) // only p1 designated faulty
	adv.DropSendAt(1, 0, 1)       // illegal: p0 is correct
	e := MustNewEngine(ps, adv)
	e.Step()

	if !eps[1].heard[0].Has(0) {
		t.Error("correct p0's message was dropped; only faulty processes may deviate")
	}
}

func TestSelfDeliveryUnconditional(t *testing.T) {
	eps, ps := newEchos(2)
	adv := failure.NewScripted(0, 1)
	adv.DropSendAt(1, 0, 0) // even a scripted self-drop must be ignored
	adv.DropRecvAt(1, 1, 1)
	e := MustNewEngine(ps, adv)
	e.Step()

	if !eps[0].heard[0].Has(0) {
		t.Error("p0 must receive its own broadcast")
	}
	if !eps[1].heard[0].Has(1) {
		t.Error("p1 must receive its own broadcast")
	}
}

func TestCrashHaltsProcess(t *testing.T) {
	eps, ps := newEchos(3)
	adv := failure.NewScripted(1).CrashAt(1, 2)
	e := MustNewEngine(ps, adv)
	e.Run(3)

	if eps[1].rounds != 1 {
		t.Errorf("crashed p1 executed %d rounds, want 1", eps[1].rounds)
	}
	// After the crash, others no longer hear p1.
	for _, p := range []*echoProc{eps[0], eps[2]} {
		if !p.heard[0].Has(1) {
			t.Errorf("%v should hear p1 in round 1", p.id)
		}
		if p.heard[1].Has(1) || p.heard[2].Has(1) {
			t.Errorf("%v heard crashed p1 after round 1", p.id)
		}
	}
	if !e.Crashed().Equal(proc.NewSet(1)) {
		t.Errorf("Crashed() = %v", e.Crashed())
	}
}

func TestCrashIgnoredForCorrectProcess(t *testing.T) {
	eps, ps := newEchos(2)
	adv := failure.NewScripted() // nobody designated faulty
	adv.CrashAt(0, 1)
	e := MustNewEngine(ps, adv)
	e.Run(2)
	if eps[0].rounds != 2 {
		t.Error("correct process must not crash even if scripted")
	}
}

func TestObservation(t *testing.T) {
	eps, ps := newEchos(3)
	_ = eps
	adv := failure.NewScripted(2).DropSendAt(2, 2, 0).CrashAt(2, 3)
	e := MustNewEngine(ps, adv)
	rec := &recordObserver{}
	e.Observe(rec)
	e.Run(3)

	if len(rec.obs) != 3 {
		t.Fatalf("observed %d rounds, want 3", len(rec.obs))
	}

	o1 := rec.obs[0]
	if o1.Round != 1 {
		t.Errorf("round = %d, want 1", o1.Round)
	}
	if !o1.Alive.Equal(proc.Universe(3)) {
		t.Errorf("alive = %v", o1.Alive)
	}
	if o1.Deviated.Len() != 0 {
		t.Errorf("round 1 deviations = %v, want none", o1.Deviated)
	}
	// Every alive process broadcast its ID in round 1: each one's own
	// broadcast is in its inbox (self-delivery), carrying that payload.
	for _, p := range o1.Alive.Sorted() {
		got := false
		for _, m := range o1.Delivered[p] {
			got = got || m.From == p && m.Payload == int(p)
		}
		if !got {
			t.Errorf("round 1: %v's own broadcast missing from %v", p, o1.Delivered[p])
		}
	}
	if len(o1.Delivered[0]) != 3 {
		t.Errorf("round 1 p0 got %d messages, want 3", len(o1.Delivered[0]))
	}

	o2 := rec.obs[1]
	if !o2.Deviated.Equal(proc.NewSet(2)) {
		t.Errorf("round 2 deviations = %v, want {p2}", o2.Deviated)
	}
	if len(o2.Delivered[0]) != 2 {
		t.Errorf("round 2 p0 got %d messages, want 2 (p2 dropped)", len(o2.Delivered[0]))
	}

	o3 := rec.obs[2]
	if !o3.Alive.Equal(proc.NewSet(0, 1)) {
		t.Errorf("round 3 alive = %v, want {p0, p1}", o3.Alive)
	}
	if !o3.Deviated.Has(2) {
		t.Errorf("crash of p2 should be a round-3 deviation, got %v", o3.Deviated)
	}
	if _, ok := o3.Start[2]; ok {
		t.Error("crashed process must not appear in Start")
	}
}

func TestDeliveredSortedByFrom(t *testing.T) {
	eps, ps := newEchos(5)
	e := MustNewEngine(ps, nil)
	e.Step()
	for _, p := range eps {
		_ = p
	}
	rec := &recordObserver{}
	e.Observe(rec)
	e.Step()
	for id, msgs := range rec.obs[0].Delivered {
		for i := 1; i < len(msgs); i++ {
			if msgs[i-1].From >= msgs[i].From {
				t.Fatalf("messages to %v not sorted: %v then %v", id, msgs[i-1].From, msgs[i].From)
			}
		}
	}
}

func TestCorrupt(t *testing.T) {
	eps, ps := newEchos(3)
	e := MustNewEngine(ps, nil)
	rng := rand.New(rand.NewSource(1))

	if n := e.Corrupt(rng, proc.NewSet(0, 2)); n != 2 {
		t.Errorf("Corrupt = %d, want 2", n)
	}
	if eps[0].corrupts != 1 || eps[1].corrupts != 0 || eps[2].corrupts != 1 {
		t.Errorf("corrupts = %d,%d,%d", eps[0].corrupts, eps[1].corrupts, eps[2].corrupts)
	}
	if n := e.CorruptEverything(rng); n != 3 {
		t.Errorf("CorruptEverything = %d, want 3", n)
	}
}

func TestRoundCounterAdvances(t *testing.T) {
	_, ps := newEchos(1)
	e := MustNewEngine(ps, nil)
	if e.Round() != 1 {
		t.Errorf("initial Round = %d, want 1", e.Round())
	}
	e.Run(5)
	if e.Round() != 6 {
		t.Errorf("after 5 steps Round = %d, want 6", e.Round())
	}
	if e.N() != 1 {
		t.Errorf("N = %d", e.N())
	}
	if e.Process(0) == nil || e.Process(3) != nil {
		t.Error("Process lookup wrong")
	}
}
