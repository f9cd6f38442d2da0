package store

import (
	"fmt"

	"ftss/internal/chaos"
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
var WindowAgreement = chaos.Agreement("store window-agreement",
	func(prev, cur chaos.DecisionCell) string {
		if cur.Round < prev.Round {
			return fmt.Sprintf("frontier regressed %d → %d", prev.Round, cur.Round)
		}
		return ""
	})
