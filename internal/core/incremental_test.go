package core

import (
	"math/rand"
	"testing"

	"ftss/internal/core/coretest"
	"ftss/internal/failure"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/round"
)

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// agreementOnly is the Agreement clause of Assumption 1 alone, as a
// per-round Func, so the differential tests also cover the Func window.
var agreementOnly = Func{ProblemName: "agreement-only", Round: RoundAgreement{}.checkAgreement}

// chaosScript drives one seeded chaotic run: random omissions on
// designated-faulty processes (growing the actual faulty set mid-history),
// a scripted crash, systemic corruption with marks (segment boundaries and
// coterie churn), and restarts of the round structure via corruption.
type chaosScript struct {
	seed   int64
	rounds int
}

// run replays the script, calling inspect after every observed round.
func (cs chaosScript) run(t *testing.T, attach func(h *history.History), inspect func(h *history.History, r int)) {
	t.Helper()
	const n = 5
	procs, ps := roundagree.Procs(n)
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 3), 0.35, cs.seed, uint64(cs.rounds))
	// One crash partway through: p3 halts, shrinking the alive set.
	adv.Crashes[3] = uint64(cs.rounds/2 + int(cs.seed%5))
	h := history.New(n, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	if attach != nil {
		attach(h)
	}
	rng := rand.New(rand.NewSource(cs.seed * 7))
	for r := 1; r <= cs.rounds; r++ {
		// Seeded systemic chaos between rounds: corrupt a random subset of
		// clocks and mark a de-stabilizing event, or corrupt silently
		// (coterie churn without a mark).
		switch rng.Intn(8) {
		case 0:
			e.CorruptEverything(rng)
			h.MarkSystemicFailure()
		case 1:
			var set proc.Set
			set = proc.NewSet(proc.ID(rng.Intn(n)), proc.ID(rng.Intn(n)))
			e.Corrupt(rng, set)
		case 2:
			procs[rng.Intn(n)].CorruptTo(uint64(rng.Intn(1000)))
			h.MarkSystemicFailure()
		}
		e.Step()
		inspect(h, r)
	}
}

// TestIncrementalMatchesBatchEveryPrefix is the differential property
// test for the evaluator: chaotic seeded histories replayed round by
// round through IncrementalChecker must agree with the brute-force
// oracle (coretest) verdict-for-verdict, error text included, and
// measurement-for-measurement at every prefix, for the core problems,
// conjunctions, and a per-round Func.
func TestIncrementalMatchesBatchEveryPrefix(t *testing.T) {
	sigmas := []struct {
		name  string
		sigma Problem
	}{
		{"round-agreement", RoundAgreement{}},
		{"uniformity", Uniformity{}},
		{"and", And{RoundAgreement{}, Uniformity{}}},
		{"func", agreementOnly},
		{"and-mixed", And{agreementOnly, Uniformity{}, RoundAgreement{}}},
	}
	stabs := []int{1, 2, 4}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sc := range sigmas {
			var ics []*IncrementalChecker
			script := chaosScript{seed: seed, rounds: 40}
			script.run(t,
				func(h *history.History) {
					for _, stab := range stabs {
						ics = append(ics, NewIncrementalChecker(h, sc.sigma, stab))
					}
				},
				func(h *history.History, r int) {
					for i, stab := range stabs {
						want := errString(coretest.CheckFTSS(h, windows(sc.sigma), stab))
						got := errString(ics[i].Verdict())
						if got != want {
							t.Fatalf("seed %d sigma %s stab %d prefix %d:\nincremental: %s\noracle:      %s",
								seed, sc.name, stab, r, got, want)
						}
						if got := errString(CheckFTSS(h, sc.sigma, stab)); got != want {
							t.Fatalf("seed %d sigma %s stab %d prefix %d:\nCheckFTSS: %s\noracle:    %s",
								seed, sc.name, stab, r, got, want)
						}
					}
					if m, rm := ics[0].Measure(), refMeasure(h, sc.sigma); m != rm {
						t.Fatalf("seed %d sigma %s prefix %d: Measure %+v != oracle %+v",
							seed, sc.name, r, m, rm)
					}
				})
		}
	}
}

// TestIncrementalCatchUp attaches the checker to a history that already
// holds rounds: the catch-up pass must land on the same verdict as a
// checker attached from the start.
func TestIncrementalCatchUp(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		script := chaosScript{seed: seed, rounds: 30}
		script.run(t, nil, func(h *history.History, r int) {
			if r%7 != 0 {
				return
			}
			ic := NewIncrementalChecker(h, RoundAgreement{}, 2)
			want := errString(coretest.CheckFTSS(h, windows(RoundAgreement{}), 2))
			if got := errString(ic.Verdict()); got != want {
				t.Fatalf("seed %d prefix %d: catch-up verdict %s != oracle %s", seed, r, got, want)
			}
		})
	}
}

// TestIncrementalRejectsBadStab: stab < 1 is rejected with the oracle's
// text.
func TestIncrementalRejectsBadStab(t *testing.T) {
	h := history.New(2, proc.NewSet())
	ic := NewIncrementalChecker(h, RoundAgreement{}, 0)
	want := errString(coretest.CheckFTSS(h, windows(RoundAgreement{}), 0))
	if got := errString(ic.Verdict()); got != want {
		t.Errorf("stab=0 verdict %q, want %q", got, want)
	}
}

// TestIncrementalSegments checks the segment decomposition against
// history.StableSegments.
func TestIncrementalSegments(t *testing.T) {
	script := chaosScript{seed: 4, rounds: 35}
	script.run(t,
		nil,
		func(h *history.History, r int) {
			ic := NewIncrementalChecker(h, RoundAgreement{}, 1)
			segs := ic.Segments()
			want := h.StableSegments()
			if len(segs) != len(want) {
				t.Fatalf("prefix %d: %d segments, want %d", r, len(segs), len(want))
			}
			for i := range segs {
				if segs[i].Start != want[i].Start || segs[i].End != want[i].End ||
					!segs[i].Coterie.Equal(want[i].Coterie) {
					t.Fatalf("prefix %d segment %d: [%d,%d] %v, want [%d,%d] %v",
						r, i, segs[i].Start, segs[i].End, segs[i].Coterie,
						want[i].Start, want[i].End, want[i].Coterie)
				}
			}
		})
}

// TestMinimalStabilizationMatchesLinearOracle compares the per-segment
// earliest-start scan against a linear scan over budgets: the smallest b
// the brute-force oracle accepts.
func TestMinimalStabilizationMatchesLinearOracle(t *testing.T) {
	sigmas := []struct {
		name  string
		sigma Problem
	}{
		{"round-agreement", RoundAgreement{}},
		{"and", And{RoundAgreement{}, Uniformity{}}},
		{"func", agreementOnly},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sc := range sigmas {
			script := chaosScript{seed: seed, rounds: 40}
			script.run(t, nil, func(h *history.History, r int) {
				if r%5 != 0 {
					return
				}
				got := MinimalStabilization(h, sc.sigma)
				oracle := -1
				for b := 1; b <= h.Len()+1; b++ {
					if coretest.CheckFTSS(h, windows(sc.sigma), b) == nil {
						oracle = b
						break
					}
				}
				if oracle == -1 {
					t.Fatalf("seed %d prefix %d: no feasible budget up to %d", seed, r, h.Len()+1)
				}
				if got != oracle {
					t.Fatalf("seed %d sigma %s prefix %d: MinimalStabilization = %d, oracle = %d",
						seed, sc.name, r, got, oracle)
				}
			})
		}
	}
}
