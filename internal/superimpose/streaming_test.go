package superimpose

import (
	"math/rand"
	"testing"

	"ftss/internal/core"
	"ftss/internal/core/coretest"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// batchWindow is the test oracle for the Σ⁺ windows: the predicate in
// batch form — a full Assumption 1 pass over [lo, hi], then a tile scan
// from lo that re-derives every tile start — handed to the brute-force
// Definition 2.4 oracle. It shares the per-tile checks with the product
// (they are the specification's clauses) but none of repeatedWindow's
// cursor logic.
func batchWindow(sigma core.Problem) coretest.Window {
	var fr int
	var checkTile tileCheck
	switch p := sigma.(type) {
	case RepeatedConsensus:
		fr, checkTile = p.FinalRound, p.checkIteration
	case RepeatedAgreement:
		fr, checkTile = p.FinalRound, p.checkIteration
	case RepeatedBroadcast:
		fr, checkTile = p.Protocol.FinalRound(), p.checkIteration
	}
	return func(h *history.History, lo, hi int, faulty proc.Set) error {
		if err := core.Check(core.RoundAgreement{}, h, lo, hi, faulty); err != nil {
			return err
		}
		for r := lo; r <= hi; {
			clock, ok := referenceClock(h, r, faulty)
			if !ok || Normalize(clock, fr) != 1 {
				r++
				continue
			}
			end := r + fr - 1
			if end > hi {
				break // ragged suffix
			}
			if err := checkTile(h, end, Iteration(clock, fr), faulty); err != nil {
				return err
			}
			r = end + 1
		}
		return nil
	}
}

// runDifferential replays a seeded chaotic compiled run round by round,
// comparing every prefix's incremental verdict against the brute-force
// oracle over the batch predicate for each (sigma, stab) pair.
func runDifferential(t *testing.T, ps []round.Process, n int, adv failure.Adversary,
	rounds int, seed int64, sigmas []core.Problem, stabs []int) {
	t.Helper()
	var faulty proc.Set
	if adv != nil {
		faulty = adv.Faulty()
	}
	h := history.New(n, faulty)
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	var ics []*core.IncrementalChecker
	for _, sigma := range sigmas {
		for _, stab := range stabs {
			ics = append(ics, core.NewIncrementalChecker(h, sigma, stab))
		}
	}
	rng := rand.New(rand.NewSource(seed * 13))
	for r := 1; r <= rounds; r++ {
		switch rng.Intn(9) {
		case 0:
			e.CorruptEverything(rng)
			h.MarkSystemicFailure()
		case 1:
			e.Corrupt(rng, proc.NewSet(proc.ID(rng.Intn(n))))
		}
		e.Step()
		i := 0
		for _, sigma := range sigmas {
			for _, stab := range stabs {
				want := errString(coretest.CheckFTSS(h, batchWindow(sigma), stab))
				if got := errString(ics[i].Verdict()); got != want {
					t.Fatalf("seed %d prefix %d sigma %q stab %d:\nincremental: %s\noracle:      %s",
						seed, r, sigma.Name(), stab, got, want)
				}
				i++
			}
		}
	}
}

// TestStreamingMatchesBatchRepeatedConsensus replays the bench-style
// chaotic consensus workload prefix by prefix through the streaming
// tile scan.
func TestStreamingMatchesBatchRepeatedConsensus(t *testing.T) {
	pi := fullinfo.WavefrontConsensus{F: 2}
	for seed := int64(1); seed <= 5; seed++ {
		in := SeededInputs(seed, 100)
		sigmas := []core.Problem{
			RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in},
			RepeatedAgreement{FinalRound: pi.FinalRound()},
		}
		adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 3), 0.3, seed, 30)
		cs, ps := Procs(pi, 8, in)
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		runDifferential(t, ps, 8, adv, 45, seed, sigmas, []int{1, pi.FinalRound(), 2 * pi.FinalRound()})
	}
}

// TestStreamingMatchesBatchWithCrashes exercises the tile scan when the
// alive set shrinks (reference-clock holder changes mid-segment).
func TestStreamingMatchesBatchWithCrashes(t *testing.T) {
	pi := fullinfo.WavefrontConsensus{F: 2}
	for seed := int64(1); seed <= 5; seed++ {
		in := SeededInputs(seed+50, 30)
		sigma := RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
		adv := failure.NewRandom(failure.Crash, proc.NewSet(0, 2), 0, seed, 20)
		_, ps := Procs(pi, 5, in)
		runDifferential(t, ps, 5, adv, 40, seed, []core.Problem{sigma}, []int{1, pi.FinalRound()})
	}
}

// TestStreamingMatchesBatchRepeatedBroadcast covers the broadcast Σ⁺.
func TestStreamingMatchesBatchRepeatedBroadcast(t *testing.T) {
	b := fullinfo.ReliableBroadcast{F: 1, Initiator: 0}
	in := func(p proc.ID, iter uint64) fullinfo.Value {
		return fullinfo.Value(100 + int64(iter))
	}
	sigma := RepeatedBroadcast{Protocol: b, Inputs: in}
	for seed := int64(1); seed <= 5; seed++ {
		faulty := proc.NewSet(proc.ID(int(seed)%3 + 1))
		adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, seed, 20)
		cs, ps := Procs(b, 4, in)
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		runDifferential(t, ps, 4, adv, 30, seed, []core.Problem{sigma}, []int{1, b.FinalRound()})
	}
}
