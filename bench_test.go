// Benchmarks: one per experiment (E1–E9, the paper's figures and theorems)
// plus micro-benchmarks of the substrate hot paths. The experiment benches
// run one representative scenario per iteration; `go run ./cmd/ftss-exp`
// regenerates the full tables recorded in EXPERIMENTS.md.
package ftss

import (
	"fmt"
	"math/rand"
	"testing"

	"ftss/internal/analysis"
	"ftss/internal/core"
	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/dijkstra"
	"ftss/internal/experiment"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/roundagree"
	"ftss/internal/sim/async"
	"ftss/internal/sim/round"
	"ftss/internal/smr"
	"ftss/internal/store"
	"ftss/internal/superimpose"
	"ftss/internal/wire"
)

const ms = async.Millisecond

// BenchmarkE1RoundAgreement: one corrupted round-agreement run (n=16,
// general omission) through the Definition 2.4 checker.
func BenchmarkE1RoundAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(0, 5, 10), 0.35, int64(i), 20)
		cs, ps := roundagree.Procs(16)
		rng := rand.New(rand.NewSource(int64(i)))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(16, adv.Faulty())
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(40)
		if err := core.CheckFTSS(h, core.RoundAgreement{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Theorem1Scenario: the tentative-definition violation scenario.
func BenchmarkE2Theorem1Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := 8
		adv := failure.NewScripted(1).SilenceBetween(1, 0, 1, uint64(r))
		cs, ps := roundagree.Procs(2)
		cs[0].CorruptTo(10)
		cs[1].CorruptTo(1_000_000)
		h := history.New(2, adv.Faulty())
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(r + 8)
		if core.CheckTentative(h, core.RoundAgreement{}, r) == nil {
			b.Fatal("tentative definition unexpectedly satisfied")
		}
	}
}

// BenchmarkE3Theorem2Scenario: the uniform-protocol two-world argument.
func BenchmarkE3Theorem2Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		us := []*roundagree.Uniform{roundagree.NewUniformAt(0, 3), roundagree.NewUniformAt(1, 900)}
		h := history.New(2, proc.NewSet())
		e := round.MustNewEngine([]round.Process{us[0], us[1]}, nil)
		e.Observe(h)
		e.Run(20)
		if core.CheckFTSS(h, core.RoundAgreement{}, 1) == nil {
			b.Fatal("uniform protocol unexpectedly ftss-solved")
		}
	}
}

// BenchmarkE4Compiler: one compiled repeated-consensus run (n=8, f=3,
// corrupted start) through the Σ⁺ checker.
func BenchmarkE4Compiler(b *testing.B) {
	pi := fullinfo.WavefrontConsensus{F: 3}
	in := superimpose.SeededInputs(3, 1000)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
	for i := 0; i < b.N; i++ {
		adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 4, 6), 0.3, int64(i), 20)
		cs, ps := superimpose.Procs(pi, 8, in)
		rng := rand.New(rand.NewSource(int64(i) + 7))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(8, adv.Faulty())
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(40)
		if err := core.CheckFTSS(h, sigma, pi.FinalRound()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5DetectorTransform: one corrupted ◊W→◊S run (n=5, 1 crash)
// through the ◊S axiom checker.
func BenchmarkE5DetectorTransform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crash := map[proc.ID]async.Time{4: 15 * ms}
		weak := &detector.SimulatedWeak{
			N: 5, CrashAt: crash, AccuracyAt: 30 * ms, Lag: 3 * ms,
			NoiseP: 0.3, SlanderP: 0.2, Seed: int64(i),
		}
		procs := make([]*detector.Proc, 5)
		aps := make([]async.Proc, 5)
		var srcs []detector.SuspectSource
		for j := 0; j < 5; j++ {
			procs[j] = detector.NewProc(proc.ID(j), 5, weak)
			aps[j] = procs[j]
			if j != 4 {
				srcs = append(srcs, procs[j])
			}
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for _, p := range procs {
			p.Corrupt(rng)
		}
		e := async.MustNewEngine(aps, async.Config{
			Seed: int64(i), TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms, CrashAt: crash,
		})
		samples := detector.SampleRun(e, srcs, 3*ms, 250*ms)
		if _, err := detector.VerifyEventuallyStrong(samples, proc.NewSet(0, 1, 2, 3), crash, 25*ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6AsyncConsensus: one corrupted stabilizing-consensus run
// (n=5, 2 crashes) through the stable-agreement checker.
func BenchmarkE6AsyncConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crash := map[proc.ID]async.Time{3: 15 * ms, 4: 24 * ms}
		weak := &detector.SimulatedWeak{
			N: 5, CrashAt: crash, AccuracyAt: 30 * ms, Lag: 3 * ms,
			NoiseP: 0.25, SlanderP: 0.15, Seed: int64(i),
		}
		inputs := []ctcons.Value{5, 9, 1, 7, 3}
		cs, aps := ctcons.Procs(5, inputs, ctcons.Stabilizing(), weak)
		e := async.MustNewEngine(aps, async.Config{
			Seed: int64(i), TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms, CrashAt: crash,
		})
		rng := rand.New(rand.NewSource(int64(i) * 3))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		samples := ctcons.SampleDecisions(e, cs, 5*ms, 1200*ms)
		if _, err := ctcons.VerifyStableAgreement(samples, e.Correct()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7AblationSuspects: the stale-replay hazard with the suspect
// filter on (the run must pass; the table shows the off-variant failing).
func BenchmarkE7AblationSuspects(b *testing.B) {
	cfg := experiment.Config{Seeds: 2, Rounds: 30, HorizonMS: 400}
	for i := 0; i < b.N; i++ {
		t := experiment.E7AblationSuspects(cfg)
		if len(t.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE8AblationResend: the corrupted-sent-flag deadlock with and
// without mechanism 1.
func BenchmarkE8AblationResend(b *testing.B) {
	cfg := experiment.Config{Seeds: 2, Rounds: 30, HorizonMS: 400}
	for i := 0; i < b.N; i++ {
		t := experiment.E8AblationResend(cfg)
		if len(t.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSyncEngineRound: cost of one synchronous round, n=32 round
// agreement.
func BenchmarkSyncEngineRound(b *testing.B) {
	_, ps := roundagree.Procs(32)
	e := round.MustNewEngine(ps, failure.None{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepInstrumented pins the telemetry layer's hot-path
// cost on the same workload as BenchmarkSyncEngineRound. The disabled
// sub-benchmark is the contract: its committed BENCH_PR4.json entry is
// the pre-telemetry engine measurement, so the benchbase allocs/op gate
// fails if attaching the nil-checked hooks ever costs the uninstrumented
// path a single extra allocation. The enabled sub-benchmark documents
// what full counter coverage costs when it is actually on.
func BenchmarkEngineStepInstrumented(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		_, ps := roundagree.Procs(32)
		e := round.MustNewEngine(ps, failure.None{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		_, ps := roundagree.Procs(32)
		e := round.MustNewEngine(ps, failure.None{})
		reg := obs.NewRegistry()
		e.Instrument(&round.Instruments{
			Rounds:   reg.Counter("engine.rounds"),
			Messages: reg.Counter("engine.messages"),
			Dropped:  reg.Counter("engine.dropped"),
			Crashes:  reg.Counter("engine.crashes"),
			Sink:     obs.Null{},
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

// BenchmarkSyncEngineRoundRecorded: the same with history recording and
// coterie maintenance.
func BenchmarkSyncEngineRoundRecorded(b *testing.B) {
	_, ps := roundagree.Procs(32)
	h := history.New(32, proc.NewSet())
	e := round.MustNewEngine(ps, failure.None{})
	e.Observe(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkWavefrontStep: one full-information consensus step, n=32.
func BenchmarkWavefrontStep(b *testing.B) {
	pi := fullinfo.WavefrontConsensus{F: 10}
	states := make([]fullinfo.StateMsg, 32)
	for i := range states {
		states[i] = fullinfo.StateMsg{
			From:  proc.ID(i),
			State: pi.Init(proc.ID(i), 32, fullinfo.Value(i)),
		}
	}
	s := pi.Init(0, 32, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi.Step(0, 32, s, states, 1)
	}
}

// BenchmarkCompiledRound: one Π⁺ round, n=16.
func BenchmarkCompiledRound(b *testing.B) {
	pi := fullinfo.WavefrontConsensus{F: 5}
	in := superimpose.SeededInputs(1, 100)
	_, ps := superimpose.Procs(pi, 16, in)
	e := round.MustNewEngine(ps, failure.None{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCoterieMaintenance: incremental influence/coterie update cost
// under omission failures, n=24.
func BenchmarkCoterieMaintenance(b *testing.B) {
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(0, 1, 2, 3), 0.4, 9, 0)
	_, ps := roundagree.Procs(24)
	h := history.New(24, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchCoterieMaintenance is BenchmarkCoterieMaintenance at width n: the
// incremental influence/coterie update is the hot path the word-packed
// set representation exists for, so it is measured at production widths
// too (the n≥64 points are the PR's headline speedup).
func benchCoterieMaintenance(b *testing.B, n int) {
	faulty := proc.NewSet()
	for i := 0; i < n/6; i++ {
		faulty.Add(proc.ID(i))
	}
	adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, 9, 0)
	_, ps := roundagree.Procs(n)
	h := history.New(n, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCoterieMaintenance64: the coterie hot path at n=64.
func BenchmarkCoterieMaintenance64(b *testing.B) { benchCoterieMaintenance(b, 64) }

// BenchmarkCoterieMaintenance256: the coterie hot path at n=256.
func BenchmarkCoterieMaintenance256(b *testing.B) { benchCoterieMaintenance(b, 256) }

// benchCoterieMaintenanceIncremental is benchCoterieMaintenance with a
// live incremental checker attached to the history: the per-round price
// of coterie maintenance PLUS a streaming Definition 2.4 verdict, to be
// read against the checker-free baseline at the same width.
func benchCoterieMaintenanceIncremental(b *testing.B, n int) {
	faulty := proc.NewSet()
	for i := 0; i < n/6; i++ {
		faulty.Add(proc.ID(i))
	}
	adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.4, 9, 0)
	_, ps := roundagree.Procs(n)
	h := history.New(n, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	ic := core.NewIncrementalChecker(h, core.RoundAgreement{}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if ic.Stab() != 1 {
		b.Fatal("checker detached")
	}
}

// BenchmarkCoterieMaintenanceIncremental64: maintenance + live verdict, n=64.
func BenchmarkCoterieMaintenanceIncremental64(b *testing.B) {
	benchCoterieMaintenanceIncremental(b, 64)
}

// BenchmarkCoterieMaintenanceIncremental256: maintenance + live verdict, n=256.
func BenchmarkCoterieMaintenanceIncremental256(b *testing.B) {
	benchCoterieMaintenanceIncremental(b, 256)
}

// BenchmarkE14ScalePoint: one E14 pipeline point at production width
// (n=64) — corrupted round agreement plus the compiled wavefront, both
// through the Definition 2.4 checker.
func BenchmarkE14ScalePoint(b *testing.B) {
	const n = 64
	pi := fullinfo.WavefrontConsensus{F: 3}
	in := superimpose.SeededInputs(n*31+3, 1000)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
	for i := 0; i < b.N; i++ {
		faulty := proc.NewSet()
		for j := 0; j < n/4; j++ {
			faulty.Add(proc.ID((j*3 + i) % n))
		}
		adv := failure.NewRandom(failure.GeneralOmission, faulty, 0.35, int64(i), 12)
		cs, ps := roundagree.Procs(n)
		rng := rand.New(rand.NewSource(int64(i) * 97))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		h := history.New(n, faulty)
		e := round.MustNewEngine(ps, adv)
		e.Observe(h)
		e.Run(24)
		if err := core.CheckFTSS(h, core.RoundAgreement{}, 1); err != nil {
			b.Fatal(err)
		}

		wfFaulty := proc.NewSet(1, 4, 6)
		wfAdv := failure.NewRandom(failure.GeneralOmission, wfFaulty, 0.3, int64(i), 6)
		ws, wps := superimpose.Procs(pi, n, in)
		wrng := rand.New(rand.NewSource(int64(i) * 13))
		for _, c := range ws {
			c.Corrupt(wrng)
		}
		wh := history.New(n, wfFaulty)
		we := round.MustNewEngine(wps, wfAdv)
		we.Observe(wh)
		we.Run(12)
		if err := core.CheckFTSS(wh, sigma, pi.FinalRound()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- proc.Set micro-benchmarks ---
//
// Written against the API surface shared with the pre-bitset map
// representation (Add/AddAll/Intersect/Sorted), so the same code measures
// both sides of the old-vs-new baseline comparison.

// benchSetPair builds two overlapping sets of width n: every third and
// every second ID respectively.
func benchSetPair(n int) (proc.Set, proc.Set) {
	x, y := proc.NewSet(), proc.NewSet()
	for i := 0; i < n; i += 3 {
		x.Add(proc.ID(i))
	}
	for i := 0; i < n; i += 2 {
		y.Add(proc.ID(i))
	}
	return x, y
}

// BenchmarkSetUnion: steady-state in-place union (AddAll) at each width.
func BenchmarkSetUnion(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := benchSetPair(n)
			dst := x.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.AddAll(y)
			}
		})
	}
}

// BenchmarkSetIntersect: steady-state in-place intersection
// (IntersectWith, the coterie-maintenance hot path) at each width.
func BenchmarkSetIntersect(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := benchSetPair(n)
			x.IntersectWith(y)
			if x.Len() == 0 {
				b.Fatal("empty intersection")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.IntersectWith(y)
			}
		})
	}
}

// BenchmarkSetIterate: ascending iteration (Sorted) at each width.
func BenchmarkSetIterate(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := proc.Universe(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := proc.ID(0)
				for _, id := range s.Sorted() {
					sum += id
				}
				if sum != proc.ID(n*(n-1)/2) {
					b.Fatal("bad sum")
				}
			}
		})
	}
}

// BenchmarkAsyncEngineEvent: raw discrete-event throughput with the
// Figure 4 detector workload, n=8.
func BenchmarkAsyncEngineEvent(b *testing.B) {
	weak := &detector.SimulatedWeak{N: 8, AccuracyAt: 0, NoiseP: 0, SlanderP: 0.1, Seed: 2}
	aps := make([]async.Proc, 8)
	for i := 0; i < 8; i++ {
		aps[i] = detector.NewProc(proc.ID(i), 8, weak)
	}
	e := async.MustNewEngine(aps, async.Config{Seed: 2, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine drained")
		}
	}
}

// BenchmarkSMRBatch: committed-command throughput of the replicated log
// behind the batching + pipelining frontend. One op is one committed
// command: b.N commands are submitted round-robin across the replicas
// and the engine runs until every replica has expanded all of them, so
// ns/op is wall time per committed command and the implied ops/sec is
// the batched throughput. Sub-bench names are MaxBatch sizes.
func BenchmarkSMRBatch(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			const n = 3
			weak := &detector.SimulatedWeak{N: n, AccuracyAt: 0, NoiseP: 0, SlanderP: 0, Seed: 7}
			bs, aps := smr.NewBatchingReplicas(n, weak,
				smr.BatchPolicy{MaxBatch: size, Window: 2, HoldFor: 2, Seed: 7})
			for _, r := range bs {
				r.SetPipeline(2)
			}
			e := async.MustNewEngine(aps, async.Config{
				Seed: 7, TickEvery: ms, MinDelay: ms, MaxDelay: 2 * ms,
			})
			for i := 0; i < b.N; i++ {
				bs[i%n].Submit(smr.Value(int64(i)))
			}
			b.ResetTimer()
			for at := 50 * ms; ; at += 50 * ms {
				e.RunUntil(at)
				done := true
				for _, r := range bs {
					if len(r.Decided()) < b.N {
						done = false
						break
					}
				}
				if done {
					break
				}
				if at > 1_000_000*ms {
					b.Fatalf("log stuck: %d/%d/%d of %d expanded",
						len(bs[0].Decided()), len(bs[1].Decided()), len(bs[2].Decided()), b.N)
				}
			}
		})
	}
}

// BenchmarkStoreShards: the sharded CAS store's headline — aggregate
// throughput across independent Π⁺ consensus groups. A fixed seeded
// workload is routed across the shards and every shard is driven to
// drain; one op is one such 1024-CAS workload. ns/op is wall time; the
// custom sim-ns/op metric is the workload's *simulated* makespan (the
// slowest shard's virtual clock), which is the modeled system's capacity
// and is deterministic on any host. Sub-bench names are shard counts:
// near-linear scaling means sim-ns/op falls near-linearly from /1 to /16
// (the /64 row shows the tail-off once per-shard op counts stop filling
// batches).
func BenchmarkStoreShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("%d", shards), func(b *testing.B) {
			const opsPerIter = 1024
			var simTotal async.Time
			var applied uint64
			for i := 0; i < b.N; i++ {
				st := store.New(store.Config{
					Shards: shards, Seed: int64(i + 1), MaxBatch: 8,
				})
				rng := rand.New(rand.NewSource(int64(i)*131 + 17))
				ver := make(map[string]uint64, opsPerIter/4)
				for j := 0; j < opsPerIter; j++ {
					k := fmt.Sprintf("k%04d", rng.Intn(opsPerIter/4))
					old := ver[k]
					if rng.Intn(5) == 0 {
						old++ // deliberate stale CAS
					} else {
						ver[k]++
					}
					st.Submit(store.Op{Key: k, Old: old, Val: int64(j)})
				}
				if err := st.Drive(shards); err != nil {
					b.Fatal(err)
				}
				simTotal += st.Makespan()
				applied += st.Stats().Applied
			}
			if want := uint64(b.N) * opsPerIter; applied != want {
				b.Fatalf("applied %d of %d ops", applied, want)
			}
			b.ReportMetric(float64(simTotal)*1000/float64(b.N), "sim-ns/op") // sim-µs → ns
		})
	}
}

// BenchmarkCheckFTSS: checker cost on a 60-round, n=8 compiled history.
func BenchmarkCheckFTSS(b *testing.B) {
	pi := fullinfo.WavefrontConsensus{F: 2}
	in := superimpose.SeededInputs(5, 100)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 3), 0.3, 5, 30)
	cs, ps := superimpose.Procs(pi, 8, in)
	rng := rand.New(rand.NewSource(5))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	h := history.New(8, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	e.Run(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.CheckFTSS(h, sigma, pi.FinalRound()); err != nil {
			b.Fatal(err)
		}
	}
}

// obsRecorder deep-copies engine observations so they can be replayed
// into a second history after the run (the engine reuses its observation
// buffers between rounds).
type obsRecorder struct{ rounds []round.Observation }

func (rec *obsRecorder) ObserveRound(o round.Observation) {
	c := round.Observation{
		Round:     o.Round,
		Alive:     o.Alive.Clone(),
		Start:     make(map[proc.ID]round.Snapshot, len(o.Start)),
		Delivered: make(map[proc.ID][]round.Message, len(o.Delivered)),
		End:       make(map[proc.ID]round.Snapshot, len(o.End)),
		Deviated:  o.Deviated.Clone(),
	}
	for k, v := range o.Start {
		c.Start[k] = v
	}
	for k, v := range o.Delivered {
		c.Delivered[k] = append([]round.Message(nil), v...)
	}
	for k, v := range o.End {
		c.End[k] = v
	}
	rec.rounds = append(rec.rounds, c)
}

// BenchmarkCheckFTSSIncremental: the same workload as BenchmarkCheckFTSS,
// but streamed — one op is appending one recorded round to a history with
// an incremental checker attached (append-time coterie maintenance plus
// the O(delta) window extension), in place of a full CheckFTSS recompute
// over the whole prefix. The engine run itself happens up front, so ns/op
// is the marginal cost of a live Definition 2.4 verdict per round.
func BenchmarkCheckFTSSIncremental(b *testing.B) {
	const warm = 60 // the BenchmarkCheckFTSS prefix
	pi := fullinfo.WavefrontConsensus{F: 2}
	in := superimpose.SeededInputs(5, 100)
	sigma := superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}
	adv := failure.NewRandom(failure.GeneralOmission, proc.NewSet(1, 3), 0.3, 5, 30)
	cs, ps := superimpose.Procs(pi, 8, in)
	rng := rand.New(rand.NewSource(5))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	rec := &obsRecorder{}
	e := round.MustNewEngine(ps, adv)
	e.Observe(rec)
	total := warm + b.N
	if limit := warm + 4096; total > limit {
		total = limit // bound the recording; the replay below rewinds
	}
	e.Run(total)

	h := history.New(8, adv.Faulty())
	var ic *core.IncrementalChecker
	rewind := func() {
		h = history.New(8, adv.Faulty())
		for _, o := range rec.rounds[:warm] {
			h.ObserveRound(o)
		}
		ic = core.NewIncrementalChecker(h, sigma, pi.FinalRound())
	}
	rewind()
	at := warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if at == total {
			b.StopTimer()
			rewind()
			at = warm
			b.StartTimer()
		}
		h.ObserveRound(rec.rounds[at])
		at++
		if err := ic.Verdict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9BoundedCounters: the bounded-vs-unbounded counter comparison.
func BenchmarkE9BoundedCounters(b *testing.B) {
	cfg := experiment.Config{Seeds: 1, Rounds: 30, HorizonMS: 200}
	for i := 0; i < b.N; i++ {
		t := experiment.E9BoundedCounters(cfg)
		if len(t.Rows) != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE10ImperfectSynchrony: the lag-adapted stack, one scenario set.
func BenchmarkE10ImperfectSynchrony(b *testing.B) {
	cfg := experiment.Config{Seeds: 2, Rounds: 40, HorizonMS: 200}
	for i := 0; i < b.N; i++ {
		t := experiment.E10ImperfectSynchrony(cfg)
		if len(t.Rows) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE11StabilizationCost: message-cost comparison, one scenario.
func BenchmarkE11StabilizationCost(b *testing.B) {
	cfg := experiment.Config{Seeds: 1, Rounds: 30, HorizonMS: 600}
	for i := 0; i < b.N; i++ {
		t := experiment.E11StabilizationCost(cfg)
		if len(t.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE12ParameterSweep: the sweep at a single point per axis.
func BenchmarkE12ParameterSweep(b *testing.B) {
	cfg := experiment.Config{Seeds: 1, Rounds: 30, HorizonMS: 200}
	for i := 0; i < b.N; i++ {
		t := experiment.E12ParameterSweep(cfg)
		if len(t.Rows) != 10 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE13RepeatedAsyncConsensus: one SMR scenario set.
func BenchmarkE13RepeatedAsyncConsensus(b *testing.B) {
	cfg := experiment.Config{Seeds: 1, Rounds: 30, HorizonMS: 500}
	for i := 0; i < b.N; i++ {
		t := experiment.E13RepeatedAsyncConsensus(cfg)
		if len(t.Rows) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkDijkstraStabilization: the K-state ring (the origin of
// self-stabilization) from a corrupted state to legitimacy, n=8, K=9.
func BenchmarkDijkstraStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, ps := dijkstra.Ring(8, 9)
		rng := rand.New(rand.NewSource(int64(i)))
		for _, c := range cs {
			c.Corrupt(rng)
		}
		e := round.MustNewEngine(ps, failure.None{})
		e.Run(8 * 9 * 3)
		vals := make([]uint64, 8)
		for j, c := range cs {
			vals[j] = c.Val()
		}
		if dijkstra.Privileged(vals, 9).Len() != 1 {
			b.Fatal("ring did not stabilize")
		}
	}
}

// BenchmarkWireEncode: frame one representative Figure 4 SyncMsg (n=8) —
// the dominant message on the networked runtime's wire — into a reused
// buffer. The steady-state path must not allocate.
func BenchmarkWireEncode(b *testing.B) {
	msg := detector.SyncMsg{Records: make([]detector.Status, 8)}
	for i := range msg.Records {
		msg.Records[i] = detector.Status{Num: uint64(i) * 977, Dead: i%3 == 0}
	}
	var payload any = msg // box once: the transport passes `any` too
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], 3, payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty frame")
	}
}

// BenchmarkLintRepo: the static-analysis gate's own cost on the lint
// fixture corpus. The analyze sub-bench isolates the analyzer passes on
// preloaded packages (parse and type-check excluded); the workers
// sub-benches run the full parse→type-check→lint pipeline through the
// parallel loader, whose merged output is worker-count invariant, so
// they measure pure wall-time scaling.
func BenchmarkLintRepo(b *testing.B) {
	corpus := []string{
		"internal/analysis/testdata/src/chandiscipline",
		"internal/analysis/testdata/src/guardedby",
		"internal/analysis/testdata/src/maporder",
		"internal/analysis/testdata/src/wallclock",
	}
	b.Run("analyze", func(b *testing.B) {
		l, err := analysis.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		var pkgs []*analysis.Package
		for _, d := range corpus {
			p, err := l.LoadDir(d)
			if err != nil {
				b.Fatal(err)
			}
			pkgs = append(pkgs, p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(analysis.Lint(pkgs)) == 0 {
				b.Fatal("fixture corpus produced no findings")
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, diags, err := analysis.LintDirs(".", corpus, workers, analysis.All())
				if err != nil {
					b.Fatal(err)
				}
				if len(diags) == 0 {
					b.Fatal("fixture corpus produced no findings")
				}
			}
		})
	}
}

// BenchmarkWireDecode: parse the same frame back, strict mode.
func BenchmarkWireDecode(b *testing.B) {
	msg := detector.SyncMsg{Records: make([]detector.Status, 8)}
	for i := range msg.Records {
		msg.Records[i] = detector.Status{Num: uint64(i) * 977, Dead: i%3 == 0}
	}
	frame, err := wire.AppendFrame(nil, 3, msg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		from, payload, err := wire.DecodeFrame(frame)
		if err != nil || from != 3 {
			b.Fatalf("from=%v err=%v", from, err)
		}
		if len(payload.(detector.SyncMsg).Records) != 8 {
			b.Fatal("short decode")
		}
	}
}
