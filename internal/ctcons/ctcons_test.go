package ctcons

import (
	"math/rand"
	"slices"
	"testing"

	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

const ms = async.Millisecond

func weakFor(n int, crashAt map[proc.ID]async.Time, seed int64) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{
		N:          n,
		CrashAt:    crashAt,
		AccuracyAt: 30 * ms,
		Lag:        3 * ms,
		NoiseP:     0.25,
		SlanderP:   0.15,
		Seed:       seed,
	}
}

// quietWeak is a ◊W instance that never suspects anyone (legal when no
// process crashes): it is the adversarially quiet detector that makes the
// baseline's corrupted-state deadlocks deterministic — no suspicion ever
// advances a round.
func quietWeak(n int) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: 1}
}

func buildQuietRun(n int, inputs []Value, cfg Config, seed int64) ([]*Proc, *async.Engine) {
	cs, aps := Procs(n, inputs, cfg, quietWeak(n))
	e := async.MustNewEngine(aps, async.Config{
		Seed:      seed,
		TickEvery: ms,
		MinDelay:  ms,
		MaxDelay:  3 * ms,
	})
	return cs, e
}

func buildRun(n int, inputs []Value, cfg Config, crashAt map[proc.ID]async.Time,
	seed int64) ([]*Proc, *async.Engine) {
	weak := weakFor(n, crashAt, seed)
	cs, aps := Procs(n, inputs, cfg, weak)
	e := async.MustNewEngine(aps, async.Config{
		Seed:      seed,
		TickEvery: ms,
		MinDelay:  ms,
		MaxDelay:  3 * ms,
		CrashAt:   crashAt,
	})
	return cs, e
}

// TestBaselineCleanRun: plain CT terminates with a valid common decision
// from a good initial state with crash failures f < n/2.
func TestBaselineCleanRun(t *testing.T) {
	for _, n := range []int{3, 5} {
		for seed := int64(1); seed <= 10; seed++ {
			crash := map[proc.ID]async.Time{proc.ID(n - 1): 15 * ms}
			inputs := SeededInputs(seed, n)
			cs, e := buildRun(n, inputs, Baseline(), crash, seed)
			correct := e.Correct()
			samples := SampleDecisions(e, cs, 5*ms, 600*ms)
			out, err := VerifyStableAgreement(samples, correct)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if err := VerifyValidity(out, inputs); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

// TestStabilizingCleanRun: the paper's protocol also solves clean-start
// consensus (it must not be worse than the baseline).
func TestStabilizingCleanRun(t *testing.T) {
	for _, n := range []int{3, 4, 5, 7} {
		for seed := int64(1); seed <= 10; seed++ {
			crash := map[proc.ID]async.Time{}
			if n >= 3 {
				crash[proc.ID(n-1)] = 12 * ms
			}
			inputs := SeededInputs(seed+100, n)
			cs, e := buildRun(n, inputs, Stabilizing(), crash, seed)
			correct := e.Correct()
			samples := SampleDecisions(e, cs, 5*ms, 600*ms)
			out, err := VerifyStableAgreement(samples, correct)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if err := VerifyValidity(out, inputs); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

// TestStabilizingCorruptedStart is the paper's headline asynchronous
// result: from arbitrary initial states, with crash failures, the
// stabilizing protocol reaches eventual stable agreement.
func TestStabilizingCorruptedStart(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		for seed := int64(1); seed <= 15; seed++ {
			crash := map[proc.ID]async.Time{proc.ID(n / 2): 20 * ms}
			inputs := SeededInputs(seed, n)
			cs, e := buildRun(n, inputs, Stabilizing(), crash, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			for _, c := range cs {
				c.Corrupt(rng)
			}
			correct := e.Correct()
			samples := SampleDecisions(e, cs, 5*ms, 1500*ms)
			if _, err := VerifyStableAgreement(samples, correct); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

// TestStabilizingMidRunCorruption: corruption strikes after a decision has
// already stabilized; the registers must re-stabilize to a common value.
func TestStabilizingMidRunCorruption(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		inputs := SeededInputs(seed, 5)
		cs, e := buildRun(5, inputs, Stabilizing(), nil, seed)
		e.RunUntil(300 * ms)
		rng := rand.New(rand.NewSource(seed * 7))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		samples := SampleDecisions(e, cs, 5*ms, 1800*ms)
		if _, err := VerifyStableAgreement(samples, proc.Universe(5)); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestBaselineDeadlocksOnCorruptedSentFlags demonstrates the deadlock that
// mechanism 1 (periodic re-send) repairs: every process believes it has
// already sent its estimate, nobody suspects the (correct, eventually
// trusted) coordinator, and no proposal ever appears.
func TestBaselineDeadlocksOnCorruptedSentFlags(t *testing.T) {
	inputs := []Value{1, 2, 3}
	cs, e := buildQuietRun(3, inputs, Baseline(), 4)
	for _, c := range cs {
		c.m.sentEstimate = true // corrupted "already sent" state
	}
	samples := SampleDecisions(e, cs, 10*ms, 800*ms)
	if _, err := VerifyStableAgreement(samples, proc.Universe(3)); err == nil {
		t.Fatal("baseline should deadlock with corrupted sent-flags")
	}
	// No process ever decides.
	for _, c := range cs {
		if _, _, ok := c.Decision(); ok {
			t.Errorf("%v decided despite the deadlock", c.ID())
		}
	}
}

// TestStabilizingSurvivesCorruptedSentFlags: the identical corruption is
// harmless with re-send enabled.
func TestStabilizingSurvivesCorruptedSentFlags(t *testing.T) {
	inputs := []Value{1, 2, 3}
	cs, e := buildQuietRun(3, inputs, Stabilizing(), 4)
	for _, c := range cs {
		c.m.sentEstimate = true
	}
	samples := SampleDecisions(e, cs, 10*ms, 800*ms)
	out, err := VerifyStableAgreement(samples, proc.Universe(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyValidity(out, inputs); err != nil {
		t.Error(err)
	}
}

// TestBaselinePermanentDisagreement: a corrupted write-once decision
// register disagrees forever in the baseline; gossip + write-many repairs
// it in the stabilizing protocol.
func TestBaselinePermanentDisagreement(t *testing.T) {
	inputs := []Value{5, 6, 7}
	cs, e := buildRun(3, inputs, Baseline(), nil, 9)
	cs[0].decided = true
	cs[0].decision = 424242 // corrupted register
	cs[0].decisionRound = 0
	cs[0].m.sentDecide = true // and it believes it already told everyone
	samples := SampleDecisions(e, cs, 10*ms, 800*ms)
	if _, err := VerifyStableAgreement(samples, proc.Universe(3)); err == nil {
		t.Fatal("baseline should end in permanent disagreement")
	}

	cs, e = buildRun(3, inputs, Stabilizing(), nil, 9)
	cs[0].decided = true
	cs[0].decision = 424242
	cs[0].decisionRound = 0
	cs[0].m.sentDecide = true
	samples = SampleDecisions(e, cs, 10*ms, 800*ms)
	if _, err := VerifyStableAgreement(samples, proc.Universe(3)); err != nil {
		t.Fatalf("stabilizing protocol should converge: %v", err)
	}
}

// TestBaselineStuckAtCorruptedRound: a single corrupted round counter
// strands the baseline process; round adoption (mechanism 2) rescues it.
func TestBaselineStuckAtCorruptedRound(t *testing.T) {
	inputs := []Value{5, 6, 7}
	cs, e := buildRun(3, inputs, Baseline(), nil, 14)
	cs[2].m.round = 999983 // a round far beyond everyone, coordinated by p2 % 3...
	samples := SampleDecisions(e, cs, 10*ms, 700*ms)
	// The two clean processes decide between themselves (majority = 2),
	// and p2 adopts via the decide broadcast — OR p2 stays stuck undecided
	// if the decide broadcast happened before it could... links are
	// reliable, decide is broadcast once to all, so p2 does adopt the
	// value. The genuinely stuck configuration needs the register
	// corruption (previous test). Here we only require: the baseline
	// never brings p2 back into rounds (it idles at 999983).
	_ = samples
	if cs[2].Round() != 999983 && cs[2].Round() != 999984 {
		t.Errorf("baseline p2 round = %d; nothing should pull it back", cs[2].Round())
	}

	// Stabilizing: everyone converges to the high round and decides there.
	cs, e = buildRun(3, inputs, Stabilizing(), nil, 14)
	cs[2].m.round = 999983
	samples = SampleDecisions(e, cs, 10*ms, 700*ms)
	out, err := VerifyStableAgreement(samples, proc.Universe(3))
	if err != nil {
		t.Fatalf("stabilizing: %v", err)
	}
	if err := VerifyValidity(out, inputs); err != nil {
		t.Error(err)
	}
	if cs[0].Round() < 999983 && out.Value == 0 {
		t.Error("round adoption did not propagate")
	}
}

// TestAblationNoResend (experiment E8): with only re-send disabled, the
// corrupted sent-flag deadlock reappears even though every other
// mechanism is active.
func TestAblationNoResend(t *testing.T) {
	cfg := Stabilizing()
	cfg.Resend = false
	inputs := []Value{1, 2, 3}
	cs, e := buildQuietRun(3, inputs, cfg, 21)
	for _, c := range cs {
		c.m.sentEstimate = true
	}
	samples := SampleDecisions(e, cs, 10*ms, 800*ms)
	if _, err := VerifyStableAgreement(samples, proc.Universe(3)); err == nil {
		t.Fatal("disabling re-send alone should re-introduce the deadlock")
	}
}

// TestAblationNoAdoptRounds: with round adoption disabled, a corrupted
// round counter strands part of the system.
func TestAblationNoAdoptRounds(t *testing.T) {
	cfg := Stabilizing()
	cfg.AdoptRounds = false
	cfg.GossipDecision = false // isolate the round mechanism
	inputs := []Value{1, 2, 3}
	cs, e := buildQuietRun(3, inputs, cfg, 23)
	cs[0].m.round = 500009
	cs[1].m.round = 1000003
	cs[2].m.round = 2000003
	samples := SampleDecisions(e, cs, 10*ms, 800*ms)
	if _, err := VerifyStableAgreement(samples, proc.Universe(3)); err == nil {
		t.Fatal("without round adoption, scattered rounds should never converge")
	}
}

func TestDecisionAdoptionRule(t *testing.T) {
	p := New(0, 3, 1, Stabilizing(), weakFor(3, nil, 1))
	p.adoptDecision(DecideMsg{Round: 5, Val: 10})
	if v, r, ok := p.Decision(); !ok || v != 10 || r != 5 {
		t.Fatalf("decision = %d,%d,%v", v, r, ok)
	}
	// Lower round: ignored.
	p.adoptDecision(DecideMsg{Round: 4, Val: 99})
	if v, _, _ := p.Decision(); v != 10 {
		t.Error("lower-round decision adopted")
	}
	// Same round, higher value: adopted (lexicographic).
	p.adoptDecision(DecideMsg{Round: 5, Val: 12})
	if v, _, _ := p.Decision(); v != 12 {
		t.Error("same-round higher value not adopted")
	}
	// Higher round: adopted.
	p.adoptDecision(DecideMsg{Round: 6, Val: 3})
	if v, r, _ := p.Decision(); v != 3 || r != 6 {
		t.Error("higher-round decision not adopted")
	}

	// Baseline: write-once.
	b := New(0, 3, 1, Baseline(), weakFor(3, nil, 1))
	b.adoptDecision(DecideMsg{Round: 5, Val: 10})
	b.adoptDecision(DecideMsg{Round: 9, Val: 99})
	if v, r, _ := b.Decision(); v != 10 || r != 5 {
		t.Errorf("baseline register overwritten: %d,%d", v, r)
	}
}

func TestSanitizeClampsTimestamp(t *testing.T) {
	m := NewMachine(0, 3, 1, Stabilizing())
	m.round = 10
	m.ts = 999999
	m.sanitize()
	if m.ts != 10 {
		t.Errorf("ts = %d, want clamped to 10", m.ts)
	}
}

// TestParticipantTickAllocatesNothing: a non-coordinator's tick in a
// round whose estimate has not changed re-sends the EstimateMsg boxed on
// its first tick and asks the detector about the coordinator without
// building a suspect set.
func TestParticipantTickAllocatesNothing(t *testing.T) {
	det := detector.NewStrongCore(1, 3, quietWeak(3))
	m := NewMachine(1, 3, 7, Stabilizing())
	var out []Send
	avg := testing.AllocsPerRun(100, func() { out, _ = m.Tick(det) })
	if avg != 0 {
		t.Errorf("participant Tick allocates %.1f times, want 0", avg)
	}
	want := []Send{{proc.None, RoundMsg{Round: 0}}, {0, EstimateMsg{Round: 0, Val: 7}}}
	if m.Round() != 0 || !slices.Equal(out, want) {
		t.Fatalf("round %d, sends %v; want round 0, %v", m.Round(), out, want)
	}
}

// TestScribbledBoxesAreNotSent: the estimate and proposal boxes are
// compared with the round state before they are re-sent, so a machine
// whose boxes were scribbled over sends what a fresh one sends.
func TestScribbledBoxesAreNotSent(t *testing.T) {
	det := detector.NewStrongCore(0, 3, quietWeak(3))
	m := NewMachine(0, 3, 7, Stabilizing())
	m.estimates(EstimateMsg{Round: 0, Val: 7}, EstimateMsg{Round: 0, Val: 8})
	m.estBox = EstimateMsg{Round: 5, Val: -3, TS: 4}
	m.propBox = ProposeMsg{Round: 5, Val: -3}
	out, _ := m.Tick(det)
	want := []Send{
		{proc.None, RoundMsg{Round: 0}},
		{0, EstimateMsg{Round: 0, Val: 7}},
		{proc.None, ProposeMsg{Round: 0, Val: 7}},
	}
	if !slices.Equal(out, want) {
		t.Fatalf("sends %v, want %v", out, want)
	}
}

// estimates records es as this round's estimates, es[q] from sender q
// (a zero EstimateMsg skips q).
func (m *Machine) estimates(es ...EstimateMsg) {
	m.cur.grow(m.n)
	for q, e := range es {
		if e != (EstimateMsg{}) {
			m.cur.ests[q] = e
			m.cur.senders.Add(proc.ID(q))
		}
	}
}

func TestSanitizePrunesForeignEstimates(t *testing.T) {
	m := NewMachine(0, 3, 1, Stabilizing())
	m.round = 3
	m.estimates(EstimateMsg{},
		EstimateMsg{Round: 3, Val: 5, TS: 1},
		EstimateMsg{Round: 7, Val: 6, TS: 2}) // wrong round
	for _, bogus := range []proc.ID{99, -1} { // senders outside the group
		m.OnMessage(bogus, EstimateMsg{Round: 3, Val: 7, TS: 3})
		m.OnMessage(bogus, AckMsg{Round: 3})
		m.OnMessage(bogus, NackMsg{Round: 3})
	}
	if m.cur.acks.Len() != 0 || m.cur.nacks.Len() != 0 {
		t.Errorf("acks %v, nacks %v, want none from outside the group", m.cur.acks, m.cur.nacks)
	}
	m.sanitize()
	if got := m.cur.senders; got.Len() != 1 || !got.Has(1) {
		t.Errorf("estimates from %v, want only the valid one from p1", got)
	}
}

func TestPickEstimateMaxTS(t *testing.T) {
	m := NewMachine(0, 4, 1, Stabilizing())
	m.estimates(EstimateMsg{},
		EstimateMsg{Val: 10, TS: 2},
		EstimateMsg{Val: 20, TS: 5},
		EstimateMsg{Val: 30, TS: 5}) // tie: lowest ID wins
	if got := m.pick(); got != 20 {
		t.Errorf("pick = %d, want 20 (ts=5, lowest id)", got)
	}
	m = NewMachine(0, 4, 1, Stabilizing())
	m.estimates(EstimateMsg{},
		EstimateMsg{Val: NoOp, TS: 5}, // the batching sentinel
		EstimateMsg{Val: 30, TS: 5},   // tie: a real value beats NoOp
		EstimateMsg{Val: 40, TS: 5})
	if got := m.pick(); got != 30 {
		t.Errorf("pick = %d, want 30 (ts=5, non-NoOp, then lowest id)", got)
	}
}

func TestCoordRotation(t *testing.T) {
	m := NewMachine(0, 4, 1, Baseline())
	for r := uint64(0); r < 8; r++ {
		if got := m.coord(r); got != proc.ID(r%4) {
			t.Errorf("coord(%d) = %v", r, got)
		}
	}
	if m.majority() != 3 {
		t.Errorf("majority(4) = %d, want 3", m.majority())
	}
}

func TestManySeedsStabilizingNeverDisagrees(t *testing.T) {
	// Wider sweep with random corruption patterns: at the horizon, every
	// correct pair agrees (the core safety property).
	if testing.Short() {
		t.Skip("long sweep")
	}
	for seed := int64(1); seed <= 30; seed++ {
		n := 3 + int(seed)%4
		crash := map[proc.ID]async.Time{}
		if n > 3 && seed%2 == 0 {
			crash[proc.ID(n-1)] = async.Time(seed) * ms
		}
		inputs := SeededInputs(seed, n)
		cs, e := buildRun(n, inputs, Stabilizing(), crash, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cs {
			if rng.Intn(2) == 0 {
				c.Corrupt(rng)
			}
		}
		correct := e.Correct()
		samples := SampleDecisions(e, cs, 10*ms, 1500*ms)
		if _, err := VerifyStableAgreement(samples, correct); err != nil {
			t.Fatalf("n=%d seed=%d: %v", n, seed, err)
		}
	}
}

func TestVerifyHelpers(t *testing.T) {
	correct := proc.NewSet(0, 1)
	// Undecided at the end.
	s := []DecisionSample{{
		At:       10,
		Decided:  map[proc.ID]bool{0: true, 1: false},
		Value:    map[proc.ID]Value{0: 5},
		DecRound: map[proc.ID]uint64{0: 1},
	}}
	if _, err := VerifyStableAgreement(s, correct); err == nil {
		t.Error("undecided process not detected")
	}
	// Disagreement at the end.
	s = []DecisionSample{{
		At:       10,
		Decided:  map[proc.ID]bool{0: true, 1: true},
		Value:    map[proc.ID]Value{0: 5, 1: 6},
		DecRound: map[proc.ID]uint64{0: 1, 1: 1},
	}}
	if _, err := VerifyStableAgreement(s, correct); err == nil {
		t.Error("disagreement not detected")
	}
	// Stable from the second sample.
	s = []DecisionSample{
		{At: 10, Decided: map[proc.ID]bool{0: false, 1: false},
			Value: map[proc.ID]Value{}, DecRound: map[proc.ID]uint64{}},
		{At: 20, Decided: map[proc.ID]bool{0: true, 1: true},
			Value: map[proc.ID]Value{0: 5, 1: 5}, DecRound: map[proc.ID]uint64{0: 2, 1: 2}},
		{At: 30, Decided: map[proc.ID]bool{0: true, 1: true},
			Value: map[proc.ID]Value{0: 5, 1: 5}, DecRound: map[proc.ID]uint64{0: 2, 1: 2}},
	}
	out, err := VerifyStableAgreement(s, correct)
	if err != nil {
		t.Fatal(err)
	}
	if out.StableFrom != 20 || out.Value != 5 {
		t.Errorf("outcome = %+v", out)
	}
	if err := VerifyValidity(out, []Value{4, 5}); err != nil {
		t.Error(err)
	}
	if err := VerifyValidity(out, []Value{4, 6}); err == nil {
		t.Error("invalid decision accepted")
	}
	if _, err := VerifyStableAgreement(nil, correct); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestStringer(t *testing.T) {
	p := New(2, 3, 7, Stabilizing(), weakFor(3, nil, 1))
	if p.String() == "" {
		t.Error("String empty")
	}
}
