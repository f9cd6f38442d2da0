package detector

import (
	"math/rand"
	"reflect"
	"testing"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

const ms = async.Millisecond

func weakFor(n int, crashAt map[proc.ID]async.Time, seed int64) *SimulatedWeak {
	return &SimulatedWeak{
		N:          n,
		CrashAt:    crashAt,
		AccuracyAt: 40 * ms,
		Lag:        3 * ms,
		NoiseP:     0.3,
		SlanderP:   0.2,
		Seed:       seed,
	}
}

// detect is one ◊W query into a fresh set.
func detect(w WeakDetector, now async.Time, p proc.ID) proc.Set {
	s := proc.NewSet()
	w.Detect(now, p, s)
	return s
}

func buildRun(n int, crashAt map[proc.ID]async.Time, seed int64) (*async.Engine, []*Proc, []SuspectSource, *SimulatedWeak) {
	weak := weakFor(n, crashAt, seed)
	procs := make([]*Proc, n)
	aps := make([]async.Proc, n)
	srcs := make([]SuspectSource, n)
	for i := 0; i < n; i++ {
		procs[i] = NewProc(proc.ID(i), n, weak)
		aps[i] = procs[i]
		srcs[i] = procs[i]
	}
	e := async.MustNewEngine(aps, async.Config{
		Seed:      seed,
		TickEvery: ms,
		MinDelay:  ms,
		MaxDelay:  3 * ms,
		CrashAt:   crashAt,
	})
	return e, procs, srcs, weak
}

func correctSrcs(srcs []SuspectSource, correct proc.Set) []SuspectSource {
	var out []SuspectSource
	for _, s := range srcs {
		if correct.Has(s.ID()) {
			out = append(out, s)
		}
	}
	return out
}

func TestSimulatedWeakAnchor(t *testing.T) {
	w := weakFor(4, map[proc.ID]async.Time{0: 5 * ms}, 1)
	if w.Anchor() != 1 {
		t.Errorf("anchor = %v, want p1 (p0 crashes)", w.Anchor())
	}
	w2 := weakFor(3, nil, 1)
	if w2.Anchor() != 0 {
		t.Errorf("anchor = %v, want p0", w2.Anchor())
	}
}

func TestSimulatedWeakAxioms(t *testing.T) {
	crash := map[proc.ID]async.Time{2: 10 * ms}
	w := weakFor(4, crash, 7)
	correct := proc.NewSet(0, 1, 3)

	// Post-accuracy: the anchor p0 is never suspected by correct queriers.
	for tm := w.AccuracyAt; tm < w.AccuracyAt+50*ms; tm += ms {
		for _, q := range correct.Sorted() {
			if detect(w, tm, q).Has(0) {
				t.Fatalf("anchor suspected by %v at t=%d", q, tm)
			}
		}
	}
	// Weak completeness: the witness suspects the crashed p2 forever after
	// crash+lag.
	for tm := 13 * ms; tm < 100*ms; tm += ms {
		if !detect(w, tm, w.Witness()).Has(2) {
			t.Fatalf("witness did not suspect crashed p2 at t=%d", tm)
		}
	}
	// Never suspects itself.
	for tm := async.Time(0); tm < 60*ms; tm += 7 * ms {
		if detect(w, tm, 1).Has(1) {
			t.Fatal("self-suspicion")
		}
	}
}

func TestSimulatedWeakDeterminism(t *testing.T) {
	w1 := weakFor(5, nil, 9)
	w2 := weakFor(5, nil, 9)
	for tm := async.Time(0); tm < 50*ms; tm += ms {
		for q := proc.ID(0); q < 5; q++ {
			if !detect(w1, tm, q).Equal(detect(w2, tm, q)) {
				t.Fatalf("nondeterministic detect at t=%d q=%v", tm, q)
			}
		}
	}
}

// TestTheorem5CleanStart: from zeroed records, the transform satisfies ◊S.
func TestTheorem5CleanStart(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		crash := map[proc.ID]async.Time{1: 20 * ms}
		e, _, srcs, _ := buildRun(4, crash, seed)
		correct := proc.NewSet(0, 2, 3)
		samples := SampleRun(e, correctSrcs(srcs, correct), 2*ms, 200*ms)
		out, err := VerifyEventuallyStrong(samples, correct, crash, 20*ms)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if out.TrustedProcess != 0 {
			t.Errorf("seed=%d: trusted %v, expected anchor p0", seed, out.TrustedProcess)
		}
	}
}

// TestTheorem5CorruptedStart is the paper's headline claim for Figure 4:
// the protocol requires no initialization — ◊S from arbitrary records.
func TestTheorem5CorruptedStart(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		crash := map[proc.ID]async.Time{3: 15 * ms}
		e, procs, srcs, _ := buildRun(5, crash, seed)
		rng := rand.New(rand.NewSource(seed * 7))
		for _, p := range procs {
			p.Corrupt(rng)
		}
		correct := proc.NewSet(0, 1, 2, 4)
		samples := SampleRun(e, correctSrcs(srcs, correct), 2*ms, 250*ms)
		out, err := VerifyEventuallyStrong(samples, correct, crash, 25*ms)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if out.StabilizedFrom() >= 250*ms {
			t.Errorf("seed=%d: stabilized too late: %d", seed, out.StabilizedFrom())
		}
	}
}

// TestTheorem5StrongCompletenessSpreads: weak completeness only has the
// witness suspecting; the transform must spread the suspicion to EVERY
// correct process (that is the whole point of ◊W→◊S).
func TestTheorem5StrongCompletenessSpreads(t *testing.T) {
	crash := map[proc.ID]async.Time{4: 10 * ms}
	e, procs, _, w := buildRun(5, crash, 3)
	e.RunUntil(120 * ms)
	if w.Witness() != 0 {
		t.Fatalf("witness = %v", w.Witness())
	}
	for _, p := range procs[:4] { // all correct
		if !p.Suspects().Has(4) {
			t.Errorf("correct %v does not suspect crashed p4", p.ID())
		}
	}
}

// TestTheorem5AnchorRehabilitation: a corrupted "anchor is dead with a huge
// counter" record must be overturned by the anchor's own alive increments
// after max-adoption pulls it level.
func TestTheorem5AnchorRehabilitation(t *testing.T) {
	e, procs, _, w := buildRun(3, nil, 5)
	anchor := w.Anchor()
	// Poison p2's view of the anchor.
	procs[2].Core().recs[anchor] = Status{Num: 1 << 40, Dead: true}
	e.RunUntil(100 * ms)
	for _, p := range procs {
		if p.Suspects().Has(anchor) {
			t.Errorf("%v still believes the anchor dead", p.ID())
		}
		if got := p.Core().Record(anchor).Num; got <= 1<<40 {
			t.Errorf("%v anchor num = %d, should have overtaken the poison", p.ID(), got)
		}
	}
}

// TestTheorem5DeadPoisonedAlive: symmetric case — a crashed process
// corrupted as "alive with a huge counter" must be overturned by the
// witness's dead increments.
func TestTheorem5DeadPoisonedAlive(t *testing.T) {
	crash := map[proc.ID]async.Time{2: 5 * ms}
	e, procs, _, _ := buildRun(3, crash, 6)
	procs[0].Core().recs[2] = Status{Num: 1 << 40, Dead: false}
	procs[1].Core().recs[2] = Status{Num: (1 << 40) + 5, Dead: false}
	e.RunUntil(150 * ms)
	for _, p := range procs[:2] {
		if !p.Suspects().Has(2) {
			t.Errorf("%v does not suspect crashed p2 despite witness evidence", p.ID())
		}
	}
}

func TestStrongCoreMergeRule(t *testing.T) {
	c := NewStrongCore(0, 3, weakFor(3, nil, 1))
	c.recs[1] = Status{Num: 10, Dead: false}
	// Lower num: ignored.
	c.OnMessage(nil, 1, SyncMsg{Records: []Status{{}, {Num: 5, Dead: true}, {}}})
	if c.recs[1].Dead {
		t.Error("lower-num record adopted")
	}
	// Equal num: ignored (strictly larger required).
	c.OnMessage(nil, 1, SyncMsg{Records: []Status{{}, {Num: 10, Dead: true}, {}}})
	if c.recs[1].Dead {
		t.Error("equal-num record adopted")
	}
	// Higher num: adopted.
	c.OnMessage(nil, 1, SyncMsg{Records: []Status{{}, {Num: 11, Dead: true}, {}}})
	if !c.recs[1].Dead || c.recs[1].Num != 11 {
		t.Errorf("record = %+v, want num=11 dead", c.recs[1])
	}
	// Foreign payloads are not consumed.
	if c.OnMessage(nil, 1, "garbage") {
		t.Error("foreign payload consumed")
	}
	// Short or overlong record slices must not panic.
	c.OnMessage(nil, 1, SyncMsg{Records: []Status{{Num: 99, Dead: true}}})
	c.OnMessage(nil, 1, SyncMsg{Records: make([]Status, 10)})
}

// TestStrongCoreDetectBufferIsNotState: the set a StrongCore lends
// Detect is cleared before every query, so a core whose buffer is
// scribbled with every process before each tick suspects, counts and
// broadcasts exactly what a clean core does, through the noisy
// pre-accuracy regime and after it.
func TestStrongCoreDetectBufferIsNotState(t *testing.T) {
	const n = 5
	weak := weakFor(n, map[proc.ID]async.Time{3: 20 * ms}, 4)
	clean, scribbled := NewStrongCore(1, n, weak), NewStrongCore(1, n, weak)
	var want, got fakeCtx
	for tm := async.Time(0); tm < 80*ms; tm += ms {
		want.now, got.now = tm, tm
		scribbled.detected.Fill(n)
		clean.OnTick(&want)
		scribbled.OnTick(&got)
		if !reflect.DeepEqual(got.broadcasts, want.broadcasts) {
			t.Fatalf("t=%d: scribbled buffer broadcast %v, clean %v", tm, got.broadcasts, want.broadcasts)
		}
	}
	if clean.Record(3).Num == 0 || clean.Record(0).Num == 0 {
		t.Fatal("nobody was ever suspected: the run does not exercise Detect")
	}
}

func TestStrongCoreCorrupt(t *testing.T) {
	c := NewStrongCore(0, 4, weakFor(4, nil, 1))
	rng := rand.New(rand.NewSource(2))
	c.Corrupt(rng)
	any := false
	for s := proc.ID(0); s < 4; s++ {
		r := c.Record(s)
		if r.Num >= MaxCorruptNum {
			t.Fatalf("corrupted num out of bounds: %d", r.Num)
		}
		if r.Num != 0 || r.Dead {
			any = true
		}
	}
	if !any {
		t.Error("corruption changed nothing across 4 records")
	}
}

// TestSuspectedMatchesSuspects: the allocation-free membership query
// answers as the ◊S set does, for every process and for IDs outside the
// group, on corrupted records.
func TestSuspectedMatchesSuspects(t *testing.T) {
	c := NewStrongCore(0, 5, weakFor(5, nil, 1))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		c.Corrupt(rng)
		set := c.Suspects()
		for q := proc.ID(-1); q <= 6; q++ {
			if got, want := c.Suspected(q), set.Has(q); got != want {
				t.Fatalf("strike %d: Suspected(%v) = %v, Suspects() %v", i, q, got, set)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Suspected(2) }); n != 0 {
		t.Errorf("Suspected allocates %.1f times, want 0", n)
	}
}

func TestVerifyRejectsViolations(t *testing.T) {
	correct := proc.NewSet(0, 1)
	crash := map[proc.ID]async.Time{2: 0}

	// Strong completeness violated at the last sample.
	samples := []Sample{
		{At: 10, Suspects: map[proc.ID]proc.Set{0: proc.NewSet(2), 1: proc.NewSet()}},
	}
	if _, err := VerifyEventuallyStrong(samples, correct, crash, 0); err == nil {
		t.Error("missing suspicion of crashed process not detected")
	}

	// Weak accuracy violated: everyone suspected at the end.
	samples = []Sample{
		{At: 10, Suspects: map[proc.ID]proc.Set{0: proc.NewSet(1, 2), 1: proc.NewSet(0, 2)}},
	}
	if _, err := VerifyEventuallyStrong(samples, correct, crash, 0); err == nil {
		t.Error("universal suspicion not detected")
	}

	// Clean pass with early noise.
	samples = []Sample{
		{At: 10, Suspects: map[proc.ID]proc.Set{0: proc.NewSet(1, 2), 1: proc.NewSet(0, 2)}},
		{At: 20, Suspects: map[proc.ID]proc.Set{0: proc.NewSet(2), 1: proc.NewSet(2)}},
		{At: 30, Suspects: map[proc.ID]proc.Set{0: proc.NewSet(2), 1: proc.NewSet(2)}},
	}
	out, err := VerifyEventuallyStrong(samples, correct, crash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.TrustedProcess == proc.None {
		t.Error("no trusted process identified")
	}
	if out.StrongCompleteFrom != 0 {
		t.Errorf("StrongCompleteFrom = %d, want 0 (never violated)", out.StrongCompleteFrom)
	}
	if out.WeakAccurateFrom != 11 {
		t.Errorf("WeakAccurateFrom = %d, want 11 (noise ends after t=10)", out.WeakAccurateFrom)
	}
	if out.StabilizedFrom() < out.WeakAccurateFrom {
		t.Error("StabilizedFrom below component times")
	}

	if _, err := VerifyEventuallyStrong(nil, correct, crash, 0); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestManyCrashesUpToNMinusOne(t *testing.T) {
	// ◊S tolerates any number of crashes; with 4 of 5 crashed the sole
	// correct process must eventually suspect all of them and trust itself.
	crash := map[proc.ID]async.Time{
		0: 10 * ms, 1: 20 * ms, 3: 30 * ms, 4: 40 * ms,
	}
	e, _, srcs, _ := buildRun(5, crash, 11)
	correct := proc.NewSet(2)
	samples := SampleRun(e, correctSrcs(srcs, correct), 3*ms, 300*ms)
	out, err := VerifyEventuallyStrong(samples, correct, crash, 30*ms)
	if err != nil {
		t.Fatal(err)
	}
	if out.TrustedProcess != 2 {
		t.Errorf("trusted = %v, want the lone survivor p2", out.TrustedProcess)
	}
}

func TestMidRunCorruptionRecovers(t *testing.T) {
	crash := map[proc.ID]async.Time{1: 25 * ms}
	e, procs, srcs, _ := buildRun(4, crash, 13)
	correct := proc.NewSet(0, 2, 3)

	e.RunUntil(60 * ms)
	rng := rand.New(rand.NewSource(77))
	for _, p := range procs {
		p.Corrupt(rng)
	}
	samples := SampleRun(e, correctSrcs(srcs, correct), 2*ms, 300*ms)
	if _, err := VerifyEventuallyStrong(samples, correct, crash, 40*ms); err != nil {
		t.Fatal(err)
	}
}
