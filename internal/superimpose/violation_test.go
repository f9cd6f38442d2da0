package superimpose

import (
	"strings"
	"testing"

	"ftss/internal/core"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// puppet is a scripted process for exercising the Σ⁺ checkers' violation
// branches: it advances a clock at rate 1 and presents whatever decision
// register the script dictates at each round.
type puppet struct {
	id      proc.ID
	clock   uint64
	decided map[uint64]any // clock value at START of round → register
}

func (p *puppet) ID() proc.ID     { return p.id }
func (p *puppet) StartRound() any { return Payload{State: &fullinfo.BroadcastState{}, Clock: p.clock} }
func (p *puppet) EndRound([]round.Message) {
	p.clock++
}
func (p *puppet) Snapshot() round.Snapshot {
	return round.Snapshot{Clock: p.clock, Decided: p.decided[p.clock]}
}

func runPuppets(decided ...map[uint64]any) *history.History {
	ps := make([]round.Process, len(decided))
	for i := range decided {
		ps[i] = &puppet{id: proc.ID(i), decided: decided[i]}
	}
	h := history.New(len(decided), proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(6)
	return h
}

func wantViolation(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a violation containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not mention %q", err, substr)
	}
}

func TestRepeatedConsensusViolationBranches(t *testing.T) {
	in := ConstantInputs([]fullinfo.Value{5, 7})
	sigma := RepeatedConsensus{FinalRound: 2, Inputs: in}

	good := func(iter uint64, v fullinfo.Value) map[uint64]any {
		// Decision visible at the END of the iteration's last round: the
		// snapshot at clock 2·iter+2 carries it.
		return map[uint64]any{2*iter + 2: Decision{Iteration: iter, Value: v, OK: true}}
	}

	// Missing decision at one correct process: termination violation.
	h := runPuppets(good(0, 5), map[uint64]any{})
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "no decision")

	// Wrong iteration index.
	h = runPuppets(good(0, 5), map[uint64]any{2: Decision{Iteration: 9, Value: 5, OK: true}})
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "iteration")

	// OK=false output.
	h = runPuppets(good(0, 5), map[uint64]any{2: Decision{Iteration: 0, OK: false}})
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "no output")

	// Decision split.
	h = runPuppets(good(0, 5), good(0, 7))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "decided")

	// Invalid value (not an input).
	h = runPuppets(good(0, 999), good(0, 999))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "no process's input")

	// Unanimity: all inputs equal but a different (valid-by-membership)
	// value cannot occur with two distinct inputs; use equal inputs.
	inEq := ConstantInputs([]fullinfo.Value{5, 5})
	sigmaEq := RepeatedConsensus{FinalRound: 2, Inputs: inEq}
	h = runPuppets(good(0, 5), good(0, 5))
	if err := core.Check(sigmaEq, h, 1, 2, proc.NewSet()); err != nil {
		t.Fatalf("clean unanimous tile rejected: %v", err)
	}

	// A window with no complete tile is trivially fine.
	h = runPuppets(good(0, 5), good(0, 5))
	if err := core.Check(sigma, h, 2, 2, proc.NewSet()); err != nil {
		t.Fatalf("ragged window rejected: %v", err)
	}
}

func TestRepeatedBroadcastViolationBranches(t *testing.T) {
	b := fullinfo.ReliableBroadcast{F: 1, Initiator: 0}
	in := ConstantInputs([]fullinfo.Value{42, 0, 0})
	sigma := RepeatedBroadcast{Protocol: b, Inputs: in}

	good := func(v fullinfo.Value, ok bool) map[uint64]any {
		return map[uint64]any{2: Decision{Iteration: 0, Value: v, OK: ok}}
	}

	// All delivered the initiator's value: fine.
	h := runPuppets(good(42, true), good(42, true), good(42, true))
	if err := core.Check(sigma, h, 1, 2, proc.NewSet()); err != nil {
		t.Fatalf("clean broadcast tile rejected: %v", err)
	}

	// Integrity: a delivery differing from the initiator's input.
	h = runPuppets(good(42, true), good(13, true), good(42, true))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "integrity")

	// Mixed delivered/undelivered: agreement violation.
	h = runPuppets(good(42, true), good(0, false), good(42, true))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "delivered")

	// Nobody delivered although the initiator is correct: validity.
	h = runPuppets(good(0, false), good(0, false), good(0, false))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "validity")

	// Missing register: termination.
	h = runPuppets(good(42, true), map[uint64]any{}, good(42, true))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "lacks")
}

func TestRepeatedAgreementViolationBranches(t *testing.T) {
	sigma := RepeatedAgreement{FinalRound: 2}
	good := func(v fullinfo.Value) map[uint64]any {
		return map[uint64]any{2: Decision{Iteration: 0, Value: v, OK: true}}
	}
	h := runPuppets(good(9), good(9))
	if err := core.Check(sigma, h, 1, 2, proc.NewSet()); err != nil {
		t.Fatalf("clean tile rejected: %v", err)
	}
	h = runPuppets(good(9), good(8))
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "decided")
	h = runPuppets(good(9), map[uint64]any{})
	wantViolation(t, core.Check(sigma, h, 1, 2, proc.NewSet()), "lacks")
}

// TestRepeatedConsensusSkipsFaultyOnlyRounds: with every process faulty
// the tile scan finds no reference clock and passes vacuously.
func TestRepeatedConsensusSkipsFaultyOnlyRounds(t *testing.T) {
	in := ConstantInputs([]fullinfo.Value{5, 7})
	sigma := RepeatedConsensus{FinalRound: 2, Inputs: in}
	h := runPuppets(map[uint64]any{}, map[uint64]any{})
	if err := core.Check(sigma, h, 1, 4, proc.NewSet(0, 1)); err != nil {
		t.Fatalf("all-faulty window should be vacuous: %v", err)
	}
}
