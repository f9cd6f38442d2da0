package live

import (
	"math/rand"
	"testing"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// panicker panics on every third tick; the supervisor must absorb them.
type panicker struct {
	id    proc.ID
	ticks int
}

func (p *panicker) ID() proc.ID { return p.id }
func (p *panicker) OnTick(ctx async.Context) {
	p.ticks++
	if p.ticks%3 == 0 {
		panic("injected callback panic")
	}
}
func (p *panicker) OnMessage(async.Context, proc.ID, any) {}

func TestPanicSupervision(t *testing.T) {
	pk := &panicker{id: 0}
	rt := MustNew([]async.Proc{pk}, Config{Seed: 1, TickEvery: 200 * time.Microsecond})
	rt.Start()
	defer rt.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ticks := 0
		if !rt.Inspect(0, func(p async.Proc) { ticks = p.(*panicker).ticks }) {
			t.Fatal("panicking process should stay inspectable")
		}
		if ticks >= 10 {
			h := rt.Health()
			if h.Panics < 3 {
				t.Fatalf("10 ticks imply ≥3 recovered panics, health says %d", h.Panics)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("process did not keep ticking past its panics")
}

func TestKillRestartLifecycle(t *testing.T) {
	cs := []*counter{{id: 0, echo: true}, {id: 1}}
	rt := MustNew([]async.Proc{cs[0], cs[1]}, Config{Seed: 2, TickEvery: 200 * time.Microsecond})
	rt.Start()
	defer rt.Stop()

	if !rt.Kill(1) {
		t.Fatal("killing a running process should succeed")
	}
	if rt.Kill(1) {
		t.Error("double kill should report false")
	}
	if !rt.Crashed().Has(1) || rt.Up().Has(1) {
		t.Errorf("after kill: crashed=%v up=%v", rt.Crashed(), rt.Up())
	}
	if rt.Inspect(1, func(async.Proc) {}) {
		t.Error("inspecting a killed process should fail")
	}

	if !rt.Restart(1) {
		t.Fatal("restart of a killed process should succeed")
	}
	if rt.Restart(1) {
		t.Error("restarting a running process should report false")
	}
	if rt.Crashed().Has(1) || !rt.Up().Has(1) {
		t.Errorf("after restart: crashed=%v up=%v", rt.Crashed(), rt.Up())
	}

	before := 0
	rt.Inspect(1, func(p async.Proc) { before = p.(*counter).msgs })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got := 0
		if rt.Inspect(1, func(p async.Proc) { got = p.(*counter).msgs }) && got > before {
			if n := rt.Health().Restarts; n != 1 {
				t.Fatalf("health restarts = %d, want 1", n)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("restarted process receives no messages")
}

// flood sends to 1 on every tick; sink sleeps in OnMessage so its mailbox
// backs up, exercising the overflow rule.
type flood struct{ id proc.ID }

func (f *flood) ID() proc.ID { return f.id }
func (f *flood) OnTick(ctx async.Context) {
	for i := 0; i < 8; i++ {
		ctx.Send(1, i)
	}
}
func (f *flood) OnMessage(async.Context, proc.ID, any) {}

type sink struct {
	id   proc.ID
	got  int
	doze time.Duration
}

func (s *sink) ID() proc.ID          { return s.id }
func (s *sink) OnTick(async.Context) {}
func (s *sink) OnMessage(async.Context, proc.ID, any) {
	s.got++
	if s.doze > 0 {
		time.Sleep(s.doze)
	}
}

func TestMailboxDropOldest(t *testing.T) {
	rt := MustNew([]async.Proc{&flood{id: 0}, &sink{id: 1, doze: time.Millisecond}}, Config{
		Seed: 3, TickEvery: 100 * time.Microsecond,
		MailboxCap: 4,
	})
	rt.Start()
	time.Sleep(80 * time.Millisecond)
	h := rt.Health()
	rt.Stop()
	if h.OverflowDropped == 0 {
		t.Error("flooding a capped mailbox should drop its oldest messages")
	}
	if hw := h.MailboxHighWater; hw > 4 {
		t.Errorf("mailbox high water %d exceeds cap 4", hw)
	}
	if h.Sent == 0 || h.Delivered == 0 {
		t.Errorf("no traffic flowed past the full mailbox: %s", h)
	}
}

// seqMsg is a per-sender sequence number.
type seqMsg struct {
	from proc.ID
	seq  uint64
}

type seqSender struct {
	id, to proc.ID
	next   uint64
}

func (s *seqSender) ID() proc.ID { return s.id }
func (s *seqSender) OnTick(ctx async.Context) {
	s.next++
	ctx.Send(s.to, seqMsg{from: s.id, seq: s.next})
}
func (s *seqSender) OnMessage(async.Context, proc.ID, any) {}

type seqReceiver struct {
	id  proc.ID
	got map[proc.ID][]uint64
}

func (r *seqReceiver) ID() proc.ID          { return r.id }
func (r *seqReceiver) OnTick(async.Context) {}
func (r *seqReceiver) OnMessage(_ async.Context, _ proc.ID, payload any) {
	m := payload.(seqMsg)
	r.got[m.from] = append(r.got[m.from], m.seq)
}

// TestFIFOPerSenderProperty: with no artificial delay, per-sender FIFO
// ordering survives the concurrent mailbox even while a chaos nemesis
// drops and duplicates traffic — drops leave gaps and duplicates repeat a
// value, but sequence numbers from one sender never go backwards.
func TestFIFOPerSenderProperty(t *testing.T) {
	const senders = 3
	recv := &seqReceiver{id: senders, got: map[proc.ID][]uint64{}}
	procs := []async.Proc{recv}
	for i := 0; i < senders; i++ {
		procs = append(procs, &seqSender{id: proc.ID(i), to: recv.id})
	}
	rt := MustNew(procs, Config{
		Seed: 5, TickEvery: 100 * time.Microsecond,
		Nemesis: chaos.Links{Seed: 5, DropP: 0.2, DupP: 0.3},
	})
	rt.Start()
	defer rt.Stop()

	time.Sleep(120 * time.Millisecond)
	var got map[proc.ID][]uint64
	if !rt.Inspect(recv.id, func(p async.Proc) {
		r := p.(*seqReceiver)
		got = make(map[proc.ID][]uint64, len(r.got))
		for id, seqs := range r.got {
			got[id] = append([]uint64(nil), seqs...)
		}
	}) {
		t.Fatal("receiver not inspectable")
	}

	total, dups := 0, 0
	for id, seqs := range got {
		total += len(seqs)
		for i := 1; i < len(seqs); i++ {
			if seqs[i] < seqs[i-1] {
				t.Fatalf("sender %v delivered out of order: %d after %d (index %d)",
					id, seqs[i], seqs[i-1], i)
			}
			if seqs[i] == seqs[i-1] {
				dups++
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d messages delivered; chaos too aggressive or runtime stalled", total)
	}
	h := rt.Health()
	if h.ChaosDropped == 0 || h.ChaosDuplicated == 0 {
		t.Errorf("nemesis was configured to drop and duplicate: %s", h)
	}
	if dups == 0 {
		t.Error("duplication probability 0.3 produced no adjacent duplicates")
	}
}

// quietWeak is a legal ◊W that never suspects — usable because in these
// tests every killed process restarts, so completeness is vacuous.
func quietWeak(n int) *detector.SimulatedWeak {
	return &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: 1}
}

// pollDecisions snapshots every up process's decision register.
func pollDecisions(rt *Runtime, n int) (proc.Set, map[proc.ID]chaos.DecisionCell) {
	up := rt.Up()
	cells := make(map[proc.ID]chaos.DecisionCell, n)
	for _, p := range up.Sorted() {
		p := p
		ok := rt.Inspect(p, func(ap async.Proc) {
			v, r, decided := ap.(*ctcons.Proc).Decision()
			cells[p] = chaos.DecisionCell{OK: decided, Round: r, Val: int64(v)}
		})
		if !ok {
			up.Remove(p) // crashed between Up() and Inspect
			delete(cells, p)
		}
	}
	return up, cells
}

// agreeStable reports whether the cells form a full agreement among up.
func agree(up proc.Set, cells map[proc.ID]chaos.DecisionCell) bool {
	var common chaos.DecisionCell
	first := true
	for _, p := range up.Sorted() {
		c := cells[p]
		if !c.OK {
			return false
		}
		if first {
			common, first = c, false
		} else if c != common {
			return false
		}
	}
	return !first
}

// TestRestartFromCorruptedStateDef24 is the acceptance-critical scenario:
// a consensus process is killed mid-run and restarted from corrupted
// state (§2.1's systemic failure, made operational), and the Definition
// 2.4 checker — fed by the poll recorder — confirms the cluster
// re-stabilizes to stable agreement within a bounded number of polls.
func TestRestartFromCorruptedStateDef24(t *testing.T) {
	const n = 4
	inputs := []ctcons.Value{10, 20, 30, 40}
	_, aps := ctcons.Procs(n, inputs, ctcons.Stabilizing(), quietWeak(n))
	rt := MustNew(aps, Config{
		Seed: 6, TickEvery: 300 * time.Microsecond,
		MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()

	// Let the cluster stabilize before the recorded observation begins.
	waitAgreement := func(within time.Duration) bool {
		deadline := time.Now().Add(within)
		streak := 0
		for time.Now().Before(deadline) {
			up, cells := pollDecisions(rt, n)
			if up.Len() == n && agree(up, cells) {
				streak++
				if streak >= 3 {
					return true
				}
			} else {
				streak = 0
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}
	if !waitAgreement(5 * time.Second) {
		t.Fatal("cluster never reached initial agreement")
	}

	rec := chaos.NewRecorder(n)
	observe := func(polls int, gap time.Duration) {
		for i := 0; i < polls; i++ {
			up, cells := pollDecisions(rt, n)
			rec.Observe(up, cells)
			time.Sleep(gap)
		}
	}
	observe(4, 5*time.Millisecond) // stable prefix

	const victim = proc.ID(2)
	if !rt.Kill(victim) {
		t.Fatal("kill failed")
	}
	observe(2, 5*time.Millisecond) // polls with the victim down

	// Restart from corrupted state — the systemic event the history marks.
	rec.Mark()
	if !rt.CorruptAndRestart(victim, rand.New(rand.NewSource(99))) {
		t.Fatal("corrupt-and-restart failed")
	}

	// Poll through re-stabilization until agreement holds again, then
	// record a stable tail. Cap the disturbed phase so a hung cluster
	// fails fast instead of blocking the suite.
	deadline := time.Now().Add(10 * time.Second)
	streak := 0
	for streak < 6 && time.Now().Before(deadline) {
		up, cells := pollDecisions(rt, n)
		rec.Observe(up, cells)
		if up.Len() == n && agree(up, cells) {
			streak++
		} else {
			streak = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	if streak < 6 {
		t.Fatal("cluster did not re-stabilize after restart from corrupted state")
	}

	h := rec.History()
	m := core.MeasureStabilization(h, chaos.StableAgreement)
	if m.Rounds < 0 {
		t.Fatal("history does not ftss-solve stable agreement for any budget")
	}
	if err := core.CheckFTSS(h, chaos.StableAgreement, m.Rounds); err != nil {
		t.Fatalf("Definition 2.4 check failed at measured budget %d: %v", m.Rounds, err)
	}
	if m.Rounds >= int(rec.Polls())-2 {
		t.Errorf("stabilization budget %d polls leaves no meaningful stable window (total %d)",
			m.Rounds, rec.Polls())
	}
	if got := rt.Health().Restarts; got != 1 {
		t.Errorf("health reports %d restarts of the victim, want 1", got)
	}
}

// TestLiveChaosMatchesAsyncVerdict: the same protocol class under the
// same seed reaches the same verdict — eventual stable agreement — on
// both backends: the deterministic engine with systemic corruption and a
// crash, and the goroutine runtime under a staged chaos plan.
func TestLiveChaosMatchesAsyncVerdict(t *testing.T) {
	const n = 5
	const seed = 8
	inputs := ctcons.SeededInputs(seed, n)

	// Async engine verdict: corrupted start, one crash.
	crashAt := map[proc.ID]async.Time{proc.ID(n - 1): 15 * async.Millisecond}
	weak := &detector.SimulatedWeak{
		N: n, CrashAt: crashAt,
		AccuracyAt: 30 * async.Millisecond, Lag: 3 * async.Millisecond,
		NoiseP: 0.2, SlanderP: 0.1, Seed: seed,
	}
	cs, aps := ctcons.Procs(n, inputs, ctcons.Stabilizing(), weak)
	e := async.MustNewEngine(aps, async.Config{
		Seed: seed, TickEvery: async.Millisecond,
		MinDelay: async.Millisecond, MaxDelay: 3 * async.Millisecond,
		CrashAt: crashAt,
	})
	crng := rand.New(rand.NewSource(seed * 3))
	for _, p := range cs {
		p.Corrupt(crng)
	}
	samples := ctcons.SampleDecisions(e, cs, 5*async.Millisecond, 1200*async.Millisecond)
	if _, err := ctcons.VerifyStableAgreement(samples, e.Correct()); err != nil {
		t.Fatalf("async backend verdict: %v", err)
	}

	// Live runtime verdict: same seed, same protocol, chaos plan staging
	// partition, link chaos, and crash-restart-from-garbage.
	_, laps := ctcons.Procs(n, inputs, ctcons.Stabilizing(), quietWeak(n))
	plan := chaos.NewPlan(seed, chaos.PlanConfig{
		N: n, Episodes: 3,
		EpisodeLen: 60 * time.Millisecond, QuietLen: 120 * time.Millisecond,
	})
	rt := MustNew(laps, Config{
		Seed: seed, TickEvery: 300 * time.Microsecond,
		MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond,
		Nemesis: plan,
	})
	rt.Start()
	defer rt.Stop()
	applied := rt.Apply(plan.Actions(), rand.New(rand.NewSource(seed*5)))
	<-applied

	deadline := time.Now().Add(10 * time.Second)
	streak := 0
	for time.Now().Before(deadline) {
		up, cells := pollDecisions(rt, n)
		if up.Len() == n && agree(up, cells) {
			streak++
			if streak >= 10 {
				return // both backends: stable agreement — verdicts match
			}
		} else {
			streak = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live backend under chaos did not reach the async backend's verdict (stable agreement)")
}
