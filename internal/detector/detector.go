// Package detector implements §3 of the paper: unreliable failure
// detectors in the Chandra–Toueg hierarchy and the paper's
// process-and-systemic-failure-tolerant transformation of an Eventually
// Weak Failure Detector (◊W) into an Eventually Strong one (◊S), Figure 4.
//
// Detector classes (all may erroneously suspect correct processes):
//
//	◊W — Weak Completeness: eventually every faulty process is suspected
//	     by at least one correct process (repeatedly); plus Eventual Weak
//	     Accuracy: eventually some correct process is never suspected by
//	     any correct process.
//	◊S — Strong Completeness: eventually every faulty process is suspected
//	     by every correct process; plus Eventual Weak Accuracy.
//
// The base ◊W is simulated: the real world's timeout heuristics are
// abstracted into an oracle (SimulatedWeak) that honors exactly the ◊W
// axioms and nothing more — before its accuracy time it emits arbitrary
// noise, it may slander non-anchor correct processes forever, and only the
// designated witness reliably suspects the crashed. The Figure 4 transform
// (StrongCore) must and does work against any such oracle, from any
// initial state (Theorem 5).
//
//ftss:det oracle outputs must be a function of the recorded history
package detector

import (
	"math/rand"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// WeakDetector is the ◊W oracle: Detect adds to into the processes that
// p's local ◊W module suspects at virtual time now. In the paper this is
// the repeatedly-set predicate detect(s). The caller owns into and clears
// it before the call, so a query allocates nothing.
type WeakDetector interface {
	Detect(now async.Time, p proc.ID, into proc.Set)
}

// SimulatedWeak is a deterministic oracle satisfying exactly the ◊W axioms
// for a given crash schedule:
//
//   - Weak completeness: after a crashed process's crash time plus Lag, the
//     lowest-numbered correct process (the witness) suspects it on every
//     query.
//   - Eventual weak accuracy: after AccuracyAt, no correct process ever
//     suspects the anchor (the lowest-numbered correct process).
//   - Unreliability: before AccuracyAt, every query adds seeded random
//     suspicions of anybody; after AccuracyAt, non-anchor correct processes
//     may still be slandered forever with probability SlanderP, and crashed
//     processes may be suspected by everyone.
type SimulatedWeak struct {
	N int
	// CrashAt mirrors the engine's crash schedule.
	CrashAt map[proc.ID]async.Time
	// AccuracyAt is the time after which the anchor is never suspected.
	AccuracyAt async.Time
	// Lag is how long after a crash the witness starts suspecting.
	Lag async.Time
	// NoiseP is the pre-accuracy random suspicion probability per target.
	NoiseP float64
	// SlanderP is the post-accuracy probability of suspecting a non-anchor
	// correct process.
	SlanderP float64
	// Seed drives the deterministic noise.
	Seed int64
}

var _ WeakDetector = (*SimulatedWeak)(nil)

// Anchor returns the lowest-numbered correct process — the process whose
// eventual trustworthiness ◊W guarantees.
func (w *SimulatedWeak) Anchor() proc.ID {
	for i := 0; i < w.N; i++ {
		if _, dies := w.CrashAt[proc.ID(i)]; !dies {
			return proc.ID(i)
		}
	}
	return proc.None
}

// Witness returns the correct process that reliably suspects crashed
// processes (weak completeness only promises one).
func (w *SimulatedWeak) Witness() proc.ID { return w.Anchor() }

func (w *SimulatedWeak) coin(now async.Time, p, s proc.ID, salt uint64) float64 {
	x := uint64(w.Seed) ^ salt
	x ^= uint64(now/async.Millisecond) * 0x9e3779b97f4a7c15
	x ^= uint64(int64(p)+1) * 0xbf58476d1ce4e5b9
	x ^= uint64(int64(s)+1) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Detect implements WeakDetector.
func (w *SimulatedWeak) Detect(now async.Time, p proc.ID, out proc.Set) {
	anchor := w.Anchor()
	witness := w.Witness()
	for i := 0; i < w.N; i++ {
		s := proc.ID(i)
		if s == p {
			continue
		}
		crashAt, sDies := w.CrashAt[s]
		sDead := sDies && now >= crashAt

		if now < w.AccuracyAt {
			if w.coin(now, p, s, 0x11) < w.NoiseP {
				out.Add(s)
			}
			// Even pre-accuracy, the witness tracks the dead (this only
			// strengthens ◊W, which is allowed).
			if sDead && p == witness && now >= crashAt+w.Lag {
				out.Add(s)
			}
			continue
		}
		// Post-accuracy regime.
		if s == anchor {
			continue // never suspected again
		}
		if sDead {
			if p == witness && now >= crashAt+w.Lag {
				out.Add(s) // weak completeness
			} else if w.coin(now, p, s, 0x22) < 0.5 {
				out.Add(s) // others may also notice; not required
			}
			continue
		}
		// Correct non-anchor: eternal slander is permitted by ◊W.
		if w.coin(now, p, s, 0x33) < w.SlanderP {
			out.Add(s)
		}
	}
}

// Status is a process's opinion of another process in the Figure 4
// protocol.
type Status struct {
	Num  uint64
	Dead bool
}

// SyncMsg is the Figure 4 broadcast: the sender's (num[s], state[s]) for
// every s, bundled. The paper sends one (s, num[s], state[s]) tuple per
// guarded command execution; bundling all s into one message per tick is
// the same protocol with fewer envelopes.
type SyncMsg struct {
	Records []Status // indexed by process ID
}

// MaxCorruptNum bounds corrupted counters (the protocol's counters are
// unbounded; the bound only keeps overflow unreachable in any feasible
// run).
const MaxCorruptNum = 1 << 48

// StrongCore is the Figure 4 ◊W→◊S transformation for one process p,
// covering every target s. It deliberately has no initialization
// requirements: Theorem 5 — from any initial state, assuming the
// underlying ◊W axioms, its Suspects output eventually satisfies strong
// completeness and eventual weak accuracy, despite crash failures.
//
// Embed it in an async.Proc and delegate ticks and SyncMsg payloads to it;
// it can also run standalone via Proc.
type StrongCore struct {
	self proc.ID
	n    int
	weak WeakDetector
	recs []Status

	// detected is the buffer Detect fills on each tick. It is cleared
	// before every query, so it is not state and Corrupt leaves it alone.
	detected proc.Set
}

// NewStrongCore builds the transform for process self. The initial records
// are zeroed, but correctness never depends on that (tests corrupt them).
func NewStrongCore(self proc.ID, n int, weak WeakDetector) *StrongCore {
	return &StrongCore{self: self, n: n, weak: weak, recs: make([]Status, n), detected: proc.NewSetCap(n)}
}

// OnTick executes the "when …" guarded commands of Figure 4 once and
// broadcasts the current records.
func (c *StrongCore) OnTick(ctx async.Context) {
	// when detect(s): num[s]++; state[s] := dead.
	c.detected.Clear()
	c.weak.Detect(ctx.Now(), c.self, c.detected)
	c.detected.ForEach(func(s proc.ID) {
		if int(s) < 0 || int(s) >= c.n || s == c.self {
			return
		}
		c.recs[s].Num++
		c.recs[s].Dead = true
	})
	// when p = s: num[s]++; state[s] := alive.
	c.recs[c.self].Num++
	c.recs[c.self].Dead = false

	// when true: send (s, num[s], state[s]) to all.
	out := make([]Status, c.n)
	copy(out, c.recs)
	ctx.Broadcast(SyncMsg{Records: out})
}

// OnMessage merges a SyncMsg: adopt any record with a strictly larger num.
// It reports whether the payload was consumed.
func (c *StrongCore) OnMessage(_ async.Context, _ proc.ID, payload any) bool {
	m, ok := payload.(SyncMsg)
	if !ok {
		return false
	}
	for s := 0; s < c.n && s < len(m.Records); s++ {
		if m.Records[s].Num > c.recs[s].Num {
			c.recs[s] = m.Records[s]
		}
	}
	return true
}

// Suspects returns the ◊S output: every process currently believed dead.
func (c *StrongCore) Suspects() proc.Set {
	out := proc.NewSet()
	for s := 0; s < c.n; s++ {
		if c.recs[s].Dead {
			out.Add(proc.ID(s))
		}
	}
	return out
}

// Suspected reports whether q is in the ◊S output, without building the
// set Suspects returns.
func (c *StrongCore) Suspected(q proc.ID) bool {
	return q >= 0 && int(q) < c.n && c.recs[q].Dead
}

// Record exposes one target's (num, state) pair for tests and traces.
func (c *StrongCore) Record(s proc.ID) Status { return c.recs[s] }

// Corrupt implements failure.Corruptible: arbitrary counters and states.
func (c *StrongCore) Corrupt(rng *rand.Rand) {
	for s := range c.recs {
		c.recs[s] = Status{
			Num:  uint64(rng.Int63n(MaxCorruptNum)),
			Dead: rng.Intn(2) == 0,
		}
	}
}

// Proc wraps a StrongCore as a standalone async.Proc, for running the
// transformation by itself (experiment E5).
type Proc struct {
	core *StrongCore
}

var _ async.Proc = (*Proc)(nil)

// NewProc builds a standalone Figure 4 process.
func NewProc(self proc.ID, n int, weak WeakDetector) *Proc {
	return &Proc{core: NewStrongCore(self, n, weak)}
}

// ID implements async.Proc.
func (p *Proc) ID() proc.ID { return p.core.self }

// OnTick implements async.Proc.
func (p *Proc) OnTick(ctx async.Context) { p.core.OnTick(ctx) }

// OnMessage implements async.Proc.
func (p *Proc) OnMessage(ctx async.Context, from proc.ID, payload any) {
	p.core.OnMessage(ctx, from, payload)
}

// Suspects returns the ◊S output.
func (p *Proc) Suspects() proc.Set { return p.core.Suspects() }

// Core exposes the transform for corruption and inspection.
func (p *Proc) Core() *StrongCore { return p.core }

// Corrupt implements failure.Corruptible.
func (p *Proc) Corrupt(rng *rand.Rand) { p.core.Corrupt(rng) }
