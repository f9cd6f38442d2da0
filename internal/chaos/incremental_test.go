package chaos

import (
	"math/rand"
	"testing"

	"ftss/internal/core"
	"ftss/internal/core/coretest"
	"ftss/internal/history"
	"ftss/internal/proc"
)

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// stableWindows hands StableAgreement to the brute-force oracle in
// whole-window form.
func stableWindows(h *history.History, lo, hi int, faulty proc.Set) error {
	return core.Check(StableAgreement, h, lo, hi, faulty)
}

// TestWatchMatchesBatchEveryPrefix is the soak differential property
// test: a seeded chaotic poll stream — partitions (processes leaving the
// up set), restarts with divergent registers, register churn, and
// systemic marks — replayed poll by poll through Recorder.Watch must
// agree with the brute-force oracle (coretest) verdict-for-verdict and
// measurement-for-measurement at every prefix.
func TestWatchMatchesBatchEveryPrefix(t *testing.T) {
	const n = 5
	stabs := []int{1, 2, 4}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := NewRecorder(n)
		var watchers []*core.IncrementalChecker
		for _, stab := range stabs {
			watchers = append(watchers, rec.Watch(stab))
		}
		val, reg := int64(100), uint64(1)
		up := proc.Universe(n)
		for poll := 1; poll <= 60; poll++ {
			switch rng.Intn(10) {
			case 0: // chaos episode: mark, then new register value
				rec.Mark()
				reg++
				val = int64(rng.Intn(50))
			case 1: // partition: some processes go down
				up = up.Clone()
				up.Remove(proc.ID(rng.Intn(n)))
				if up.Len() == 0 {
					up = proc.Universe(n)
				}
			case 2: // restart: everyone back up
				up = proc.Universe(n)
			}
			cells := make(map[proc.ID]DecisionCell, n)
			for p := 0; p < n; p++ {
				cell := DecisionCell{OK: true, Round: reg, Val: val}
				switch rng.Intn(12) {
				case 0: // a straggler with no decision yet
					cell = DecisionCell{}
				case 1: // a divergent register (corrupted restart)
					cell.Val = val + 1
				}
				cells[proc.ID(p)] = cell
			}
			rec.Observe(up, cells)
			h := rec.History()
			for i, stab := range stabs {
				want := errString(coretest.CheckFTSS(h, stableWindows, stab))
				if got := errString(watchers[i].Verdict()); got != want {
					t.Fatalf("seed %d poll %d stab %d:\nincremental: %s\noracle:      %s",
						seed, poll, stab, got, want)
				}
			}
			event, from := coretest.Measure(h, stableWindows)
			if m := watchers[0].Measure(); m.EventRound != event || m.SatisfiedFrom != from {
				t.Fatalf("seed %d poll %d: Measure %+v, oracle event %d satisfied from %d",
					seed, poll, m, event, from)
			}
		}
		// The minimal budget agrees with a linear scan over budgets.
		h := rec.History()
		got := core.MinimalStabilization(h, StableAgreement)
		oracle := -1
		for b := 1; b <= h.Len()+1; b++ {
			if coretest.CheckFTSS(h, stableWindows, b) == nil {
				oracle = b
				break
			}
		}
		if got != oracle {
			t.Fatalf("seed %d: MinimalStabilization = %d, oracle = %d", seed, got, oracle)
		}
	}
}
