// External test package: the compiled-consensus workload comes from
// superimpose, which imports core.
package core_test

import (
	"math/rand"
	"testing"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

// TestIncrementalCoterieMaintenanceAllocationCeilings: the omission-heavy
// coterie workload of history's alloc test, with a live incremental
// checker attached. The ceilings are history's: the streaming verdict
// adds no allocation per round.
func TestIncrementalCoterieMaintenanceAllocationCeilings(t *testing.T) {
	for _, c := range []struct{ n, ceiling int }{{64, 3}, {256, 5}} {
		faulty := proc.NewSet()
		for i := 0; i < c.n/6; i++ {
			faulty.Add(proc.ID(i))
		}
		adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, 9, 0)
		_, ps := roundagree.Procs(c.n)
		h := history.New(c.n, adv.Faulty())
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		ic := core.NewIncrementalChecker(h, core.RoundAgreement{}, 1)
		avg := testing.AllocsPerRun(200, func() { e.Step() })
		if err := ic.Verdict(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if avg > float64(c.ceiling) {
			t.Errorf("coterie maintenance + incremental checker, n=%d: %.1f allocs per round, ceiling %d",
				c.n, avg, c.ceiling)
		}
	}
}

// recorder deep-copies engine observations so they can be replayed into
// a second history later (the engine reuses its observation buffers).
type recorder struct{ rounds []round.Observation }

func (rec *recorder) ObserveRound(o round.Observation) {
	c := round.Observation{
		Round:     o.Round,
		Alive:     o.Alive.Clone(),
		Start:     make(map[proc.ID]round.Snapshot, len(o.Start)),
		Delivered: make(map[proc.ID][]round.Message, len(o.Delivered)),
		End:       make(map[proc.ID]round.Snapshot, len(o.End)),
		Deviated:  o.Deviated.Clone(),
	}
	for k, v := range o.Start {
		c.Start[k] = v
	}
	for k, v := range o.Delivered {
		c.Delivered[k] = append([]round.Message(nil), v...)
	}
	for k, v := range o.End {
		c.End[k] = v
	}
	rec.rounds = append(rec.rounds, c)
}

// TestIncrementalAppendAllocationCeiling: the marginal cost of a live
// Definition 2.4 verdict. One op appends one pre-recorded round of a
// corrupted n=8 compiled-consensus run to a 60-round history with an
// incremental checker attached (append-time coterie maintenance plus one
// window extension), then reads the verdict.
func TestIncrementalAppendAllocationCeiling(t *testing.T) {
	const warm, runs = 60, 200
	pi := fullinfo.WavefrontConsensus{F: 2}
	in := superimpose.SeededInputs(5, 100)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 3), 0.3, 5, 30)
	cs, ps := superimpose.Procs(pi, 8, in)
	rng := rand.New(rand.NewSource(5))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	rec := &recorder{}
	e := round.MustNewEngine(ps, adv)
	e.Observe(rec)
	e.Run(warm + runs + 1) // AllocsPerRun adds one warm-up call

	h := history.New(8, adv.Faulty())
	for _, o := range rec.rounds[:warm] {
		h.ObserveRound(o)
	}
	ic := core.NewIncrementalChecker(h, sigma, pi.FinalRound())
	at := warm
	var err error
	avg := testing.AllocsPerRun(runs, func() {
		h.ObserveRound(rec.rounds[at])
		at++
		err = ic.Verdict()
	})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 4
	if avg > ceiling {
		t.Errorf("IncrementalChecker round append: %.1f allocs, ceiling %d", avg, ceiling)
	}
}
