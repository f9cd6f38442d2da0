package round

import (
	"testing"

	"ftss/internal/failure"
	"ftss/internal/proc"
)

// sortedCheckProc asserts, inside EndRound, that its inbox is sorted by
// sender — the engine's by-construction guarantee, checked on the live
// slice (observed or not) rather than on a retained Observation. Each
// broadcast carries its sending round, so a sender that appears twice (a
// held-back message plus an on-time one) must list the older one first.
type sortedCheckProc struct {
	id         proc.ID
	round      uint64 // rounds executed so far
	violations int
	got        map[sentMsg]uint64 // message → round it arrived in
}

// sentMsg names one directed message by its sending round.
type sentMsg struct {
	r        uint64
	from, to proc.ID
}

func (p *sortedCheckProc) ID() proc.ID     { return p.id }
func (p *sortedCheckProc) StartRound() any { return p.round + 1 }

func (p *sortedCheckProc) EndRound(received []Message) {
	p.round++
	for i, m := range received {
		if i > 0 {
			prev := received[i-1]
			if prev.From > m.From || prev.From == m.From && prev.Payload.(uint64) >= m.Payload.(uint64) {
				p.violations++
			}
		}
		p.got[sentMsg{r: m.Payload.(uint64), from: m.From, to: p.id}] = p.round
	}
}

func (p *sortedCheckProc) Snapshot() Snapshot { return Snapshot{} }

// recordingLag holds back about 40% of messages by a hash of the slot and
// records every message it held back.
type recordingLag struct {
	seed uint64
	held map[sentMsg]bool
}

func (l *recordingLag) Late(r uint64, from, to proc.ID) bool {
	x := (r*0x9e3779b97f4a7c15 ^ uint64(from)*0xbf58476d1ce4e5b9 ^ uint64(to)*0x94d049bb133111eb ^ l.seed) * 0xbf58476d1ce4e5b9
	if (x>>32)%10 >= 4 {
		return false
	}
	l.held[sentMsg{r: r, from: from, to: to}] = true
	return true
}

// TestInboxSortedBySenderProperty: under randomized general-omission and
// crash adversaries, with and without a lag schedule, every delivered
// inbox is sorted by sender (a held-back message first on a sender tie),
// in both the unobserved and observed engine paths. With lag, a message
// arrives one round late exactly when the schedule held it back; a
// held-back message to a receiver that has crashed since is lost, and one
// from a sender that has crashed since still arrives.
func TestInboxSortedBySenderProperty(t *testing.T) {
	const n, rounds = 7, 20
	lostToCrashed, fromCrashed := 0, 0
	for _, lagOn := range []bool{false, true} {
		for _, observed := range []bool{false, true} {
			for seed := int64(1); seed <= 25; seed++ {
				faulty := proc.NewSet()
				for i := 0; i < n/2; i++ {
					faulty.Add(proc.ID((i*3 + int(seed)) % n))
				}
				mode := failure.GeneralOmission
				if seed%3 == 0 {
					mode = failure.Crash
				}
				adv := failure.NewRandom(mode, faulty, 0.4, seed, 10)
				cs := make([]*sortedCheckProc, n)
				ps := make([]Process, n)
				for i := range cs {
					cs[i] = &sortedCheckProc{id: proc.ID(i), got: map[sentMsg]uint64{}}
					ps[i] = cs[i]
				}
				e := MustNewEngine(ps, adv)
				lag := &recordingLag{seed: uint64(seed), held: map[sentMsg]bool{}}
				if lagOn {
					e.SetLag(lag)
				}
				if observed {
					e.Observe(&recordObserver{})
				}
				e.Run(rounds)
				delivered := 0
				for _, c := range cs {
					if c.violations > 0 {
						t.Fatalf("lag=%v observed=%v seed=%d: %v saw %d unsorted inboxes",
							lagOn, observed, seed, c.id, c.violations)
					}
					delivered += len(c.got)
					for m, at := range c.got {
						want := m.r
						if lag.held[m] {
							want++
						}
						if at != want {
							t.Fatalf("lag=%v observed=%v seed=%d: %+v arrived in round %d, want %d",
								lagOn, observed, seed, m, at, want)
						}
					}
				}
				if delivered == 0 {
					t.Fatalf("lag=%v observed=%v seed=%d: nothing delivered, property vacuous",
						lagOn, observed, seed)
				}
				for m := range lag.held {
					if m.r == rounds {
						continue // would land after the run
					}
					_, arrived := cs[m.to].got[m]
					if receiverAlive := cs[m.to].round > m.r; arrived != receiverAlive {
						t.Fatalf("seed=%d: held-back %+v arrived=%v, receiver alive next round=%v",
							seed, m, arrived, receiverAlive)
					}
					if !arrived {
						lostToCrashed++
					} else if cs[m.from].round == m.r {
						fromCrashed++
					}
				}
			}
		}
	}
	if lostToCrashed == 0 || fromCrashed == 0 {
		t.Fatalf("crash cases vacuous: %d lost to crashed receivers, %d from crashed senders",
			lostToCrashed, fromCrashed)
	}
}

// quietProc is a zero-allocation process: it broadcasts a pre-boxed
// payload and discards its inbox, so AllocsPerRun sees only the engine.
type quietProc struct {
	id      proc.ID
	payload any
}

func (p *quietProc) ID() proc.ID        { return p.id }
func (p *quietProc) StartRound() any    { return p.payload }
func (p *quietProc) EndRound([]Message) {}
func (p *quietProc) Snapshot() Snapshot { return Snapshot{} }

// TestStepAllocationCeiling pins the unobserved steady-state allocation
// budget of Engine.Step: after warm-up, a round over non-allocating
// processes must stay within a small constant (the per-round deviated
// set), independent of n — the scratch buffers are reused.
func TestStepAllocationCeiling(t *testing.T) {
	const n = 16
	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &quietProc{id: proc.ID(i), payload: i}
	}
	e := MustNewEngine(ps, nil)
	e.Run(3) // warm up the scratch buffers

	avg := testing.AllocsPerRun(50, func() { e.Step() })
	// One word-packed deviated set per round, plus headroom for the
	// allocator's amortized noise.
	const ceiling = 2
	if avg > ceiling {
		t.Errorf("Engine.Step allocations: %.1f per round, ceiling %d", avg, ceiling)
	}
}

// parityLag holds back every message whose round and endpoints sum to an
// even number: about half of them, with no allocation.
type parityLag struct{}

func (parityLag) Late(r uint64, from, to proc.ID) bool { return (r+uint64(from)+uint64(to))%2 == 0 }

// TestLaggedStepAllocationCeiling: with a lag schedule attached, the
// held-back and merge buffers are sized by SetLag, so a steady-state round
// over non-allocating processes allocates nothing at all.
func TestLaggedStepAllocationCeiling(t *testing.T) {
	const n = 32
	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &quietProc{id: proc.ID(i), payload: i}
	}
	e := MustNewEngine(ps, nil)
	e.SetLag(parityLag{})
	e.Run(3) // warm up the scratch buffers

	avg := testing.AllocsPerRun(50, func() { e.Step() })
	if avg > 0 {
		t.Errorf("lagged Engine.Step allocations: %.1f per round, ceiling 0", avg)
	}
}
