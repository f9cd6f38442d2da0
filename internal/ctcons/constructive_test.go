package ctcons

import (
	"math/rand"
	"testing"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

func buildConstructive(n int, inputs []Value, crashAt map[proc.ID]async.Time,
	seed int64) ([]*HeartbeatProc, *async.Engine) {
	hs, aps := NewConstructiveProcs(n, inputs, Stabilizing(), 10*ms, 5*ms)
	e := async.MustNewEngine(aps, async.Config{
		Seed:           seed,
		TickEvery:      ms,
		MinDelay:       ms,
		MaxDelay:       3 * ms,
		GST:            60 * ms,
		PreGSTMaxDelay: 25 * ms,
		CrashAt:        crashAt,
	})
	return hs, e
}

func verifyConstructive(t *testing.T, hs []*HeartbeatProc, e *async.Engine,
	horizon async.Time, label string) Value {
	t.Helper()
	cs := make([]*Proc, len(hs))
	for i, h := range hs {
		cs[i] = h.Consensus()
	}
	samples := SampleDecisions(e, cs, 5*ms, horizon)
	out, err := VerifyStableAgreement(samples, e.Correct())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return out.Value
}

// TestConstructiveConsensusCleanStart: the oracle-free stack — partial
// synchrony → heartbeat/timeout detector → Figure 4 → §3 consensus —
// terminates with a valid decision.
func TestConstructiveConsensusCleanStart(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inputs := SeededInputs(seed, 5)
		crash := map[proc.ID]async.Time{4: 40 * ms}
		hs, e := buildConstructive(5, inputs, crash, seed)
		v := verifyConstructive(t, hs, e, 1500*ms, "clean")
		if err := VerifyValidity(StableOutcome{Value: v}, inputs); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestConstructiveConsensusCorruptedStart: the paper's headline, with no
// oracle anywhere in the stack — every layer's state is corrupted and the
// system still reaches eventual stable agreement.
func TestConstructiveConsensusCorruptedStart(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inputs := SeededInputs(seed, 5)
		crash := map[proc.ID]async.Time{4: 40 * ms}
		hs, e := buildConstructive(5, inputs, crash, seed)
		rng := rand.New(rand.NewSource(seed * 17))
		for _, h := range hs {
			h.Corrupt(rng)
		}
		verifyConstructive(t, hs, e, 2500*ms, "corrupted")
	}
}

// TestConstructiveConsensusTwoCrashes: f = 2 < n/2 crashes with the
// constructive detector.
func TestConstructiveConsensusTwoCrashes(t *testing.T) {
	inputs := SeededInputs(3, 5)
	crash := map[proc.ID]async.Time{3: 35 * ms, 4: 70 * ms}
	hs, e := buildConstructive(5, inputs, crash, 3)
	verifyConstructive(t, hs, e, 2000*ms, "two crashes")
}

// TestConstructiveSingleProcEquivalence: n stacks built one at a time
// with NewConstructiveProc, as networked nodes build them, reach stable
// agreement under pre-GST chaos and a crash. Each stack's own timeout
// core is its ◊W, which holds because the Figure 4 transform only ever
// consults the local detector.
func TestConstructiveSingleProcEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inputs := SeededInputs(seed, 5)
		hs := make([]*HeartbeatProc, 5)
		aps := make([]async.Proc, 5)
		for i := range hs {
			hs[i] = NewConstructiveProc(proc.ID(i), 5, inputs[i], Stabilizing(), 10*ms, 5*ms)
			aps[i] = hs[i]
		}
		e := async.MustNewEngine(aps, async.Config{
			Seed:           seed,
			TickEvery:      ms,
			MinDelay:       ms,
			MaxDelay:       3 * ms,
			GST:            60 * ms,
			PreGSTMaxDelay: 25 * ms,
			CrashAt:        map[proc.ID]async.Time{4: 40 * ms},
		})
		v := verifyConstructive(t, hs, e, 1500*ms, "single-proc")
		if err := VerifyValidity(StableOutcome{Value: v}, inputs); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestHeartbeatProcAccessors covers the wrapper surface.
func TestHeartbeatProcAccessors(t *testing.T) {
	hs, _ := NewConstructiveProcs(3, []Value{1, 2, 3}, Stabilizing(), 10*ms, 5*ms)
	h := hs[1]
	if h.ID() != 1 {
		t.Error("ID wrong")
	}
	if h.Consensus() == nil || h.Core() == nil {
		t.Error("layer accessors nil")
	}
	if _, _, ok := h.Decision(); ok {
		t.Error("fresh stack decided")
	}
	if h.Suspects().IsZero() {
		t.Error("Suspects nil")
	}
}
