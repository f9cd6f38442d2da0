package history

import (
	"testing"

	"ftss/internal/failure"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
)

// stepAllocs is the mean allocation count of one observed engine round,
// measured from a fresh engine over 200 rounds, after AllocsPerRun's
// warm-up round, so the amortized growth of the history's per-round
// slices is included. The run stays below round 256 on purpose: round
// agreement boxes its clock into the round's payload, which Go does
// without allocating only for values below 256.
func stepAllocs(e *round.Engine) float64 {
	return testing.AllocsPerRun(200, func() { e.Step() })
}

// TestRecordedStepAllocationCeiling: a fault-free 32-process round
// agreement step with the history attached. Influence saturates after one
// round and the alive set never changes, so the recorded round is its
// start and end snapshot rows, one allocation, and nothing else.
func TestRecordedStepAllocationCeiling(t *testing.T) {
	_, ps := roundagree.Procs(32)
	e := round.MustNewEngine(ps, failure.None{})
	e.Observe(New(32, proc.NewSet()))
	const ceiling = 1
	if avg := stepAllocs(e); avg > ceiling {
		t.Errorf("recorded Step, n=32: %.1f allocs per round, ceiling %d", avg, ceiling)
	}
}

// coterieEngine is a round agreement system of width n in which the first
// n/6 processes suffer random general omissions, so influence sets and
// the coterie keep changing: the path the word-packed sets exist for.
func coterieEngine(n int) *round.Engine {
	faulty := proc.NewSet()
	for i := 0; i < n/6; i++ {
		faulty.Add(proc.ID(i))
	}
	adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, 9, 0)
	_, ps := roundagree.Procs(n)
	e := round.MustNewEngine(ps, adv)
	e.Observe(New(n, adv.Faulty()))
	return e
}

// TestCoterieMaintenanceAllocationCeilings: core's alloc test holds the
// incremental checker to the same ceilings, so a live verdict costs no
// extra allocation per round.
func TestCoterieMaintenanceAllocationCeilings(t *testing.T) {
	for _, c := range []struct{ n, ceiling int }{{64, 3}, {256, 5}} {
		if avg := stepAllocs(coterieEngine(c.n)); avg > float64(c.ceiling) {
			t.Errorf("coterie maintenance, n=%d: %.1f allocs per round, ceiling %d", c.n, avg, c.ceiling)
		}
	}
}
