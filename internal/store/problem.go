package store

import (
	"fmt"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/proc"
)

// WindowAgreement is the sharded store's Σ for Definition 2.4: at every
// poll of a stable segment, each up replica's cell — the group frontier
// W and a hash of its decided log window (W−hashWindow, W] — exists and
// is identical across replicas, and W never regresses between polls of
// the segment. Unlike the soak's StableAgreement the register is
// *supposed* to advance (the log grows forever); what must stabilize is
// that the replicas advance in lockstep over the hashed window.
//
// Corruption breaks it three ways, all observed in tests: a poisoned
// log window hashes differently, a corrupted cursor drags the frontier
// far forward and then back down when gossip adoption re-derives it,
// and a recovering replica can transiently prune slots its peers still
// hash. Each is admissible only inside the stabilization budget that
// follows the recorded systemic mark.
var WindowAgreement core.Problem = windowAgreement{}

type windowAgreement struct{}

// Name implements core.Problem.
func (windowAgreement) Name() string { return "store window-agreement" }

// NewWindow implements core.Problem.
func (windowAgreement) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return &windowAgreementWindow{h: h, faulty: faulty}
}

// windowAgreementWindow carries the only cross-poll state, the previous
// frontier, across extensions.
type windowAgreementWindow struct {
	h        *history.History
	faulty   proc.Set
	prevW    uint64
	havePrev bool
}

// Extend implements core.WindowChecker.
func (w *windowAgreementWindow) Extend(r int) error {
	h, faulty := w.h, w.faulty
	var common chaos.DecisionCell
	have := false
	for _, p := range h.AliveAt(r).Sorted() {
		if faulty.Has(p) {
			continue
		}
		snap, _ := h.SnapshotAt(r, p)
		cell, _ := snap.Decided.(chaos.DecisionCell)
		if !cell.OK {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("%v holds no frontier", p),
			}
		}
		if !have {
			common, have = cell, true
		} else if cell != common {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("%v's log window %v diverges from %v", p, cell, common),
			}
		}
	}
	if have {
		if w.havePrev && common.Round < w.prevW {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("frontier regressed %d → %d", w.prevW, common.Round),
			}
		}
		w.prevW, w.havePrev = common.Round, true
	}
	return nil
}
