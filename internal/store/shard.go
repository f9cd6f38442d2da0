package store

import (
	"fmt"
	"math/rand"
	"sync"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/detector"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/smr"
)

// latencyBounds bucket op latency in sim microseconds: one consensus
// slot costs a few virtual milliseconds, a retried (forfeited) op a few
// hundred.
var latencyBounds = []uint64{
	500, 1000, 2000, 3000, 5000, 8000, 12_000, 20_000,
	50_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
}

// hashWindow is how many decided slots below the group frontier each
// poll folds into a replica's cell hash. It must stay well inside
// smr.GossipWindow: replicas prune below cursor−GossipWindow, and
// benign frontier skew must never make a live replica hash a pruned
// slot.
const hashWindow = 4

// containmentBounds bucket rounds-to-reconverge (Definition 2.4 polls
// between a corruption strike and the next fully-agreeing poll).
var containmentBounds = []uint64{1, 2, 4, 8, 16, 32, 64}

// markEvent is one open corruption strike awaiting reconvergence: when
// it struck and how many polls had been recorded by then.
type markEvent struct {
	at   async.Time
	poll uint64
}

type kvEntry struct {
	ver uint64
	val int64
}

// Shard is one Π⁺ consensus group serving one slice of the key space:
// cfg.Replicas batching replicas on a private seeded discrete-event
// engine, a CAS state machine folded from the committed command stream,
// and a chaos.Recorder feeding the incremental Definition 2.4 checker.
//
// A Shard is a monitor: one mutex guards everything, so it can be
// driven from a worker pool and served from connection goroutines
// without further coordination. All determinism is per shard — the
// state after Submit/DriveAll sequence S is a pure function of (cfg,
// idx, S), whatever other shards or goroutines were doing.
type Shard struct {
	mu  sync.Mutex
	idx int
	cfg Config

	//ftss:guardedby mu
	reps []*smr.BatchingReplica
	//ftss:guardedby mu
	eng *async.Engine
	//ftss:guardedby mu
	rec *chaos.Recorder
	//ftss:guardedby mu
	ic *core.IncrementalChecker
	//ftss:guardedby mu
	reg *obs.Registry
	//ftss:guardedby mu
	crng *rand.Rand

	// Submitted ops, dense by shard-local sequence number (the value the
	// replicated log carries).
	//ftss:guardedby mu
	ops []Op
	//ftss:guardedby mu
	firstAt []async.Time // first submission, for latency
	//ftss:guardedby mu
	done []bool
	//ftss:guardedby mu
	results []Result
	//ftss:guardedby mu
	pending int
	//ftss:guardedby mu
	scanFrom int64 // ops below this are all applied
	//ftss:guardedby mu
	lastProgress async.Time // last time an op applied; retry fires on stall
	//ftss:guardedby mu
	nextRep int // round-robin submission target

	//ftss:guardedby mu
	kv map[string]kvEntry
	//ftss:guardedby mu
	applyIdx int // fold cursor into reps[0].Decided()

	//ftss:guardedby mu
	nextPoll async.Time
	//ftss:guardedby mu
	nextCorrupt async.Time

	//ftss:guardedby mu
	opsC *obs.Counter
	//ftss:guardedby mu
	appliedC *obs.Counter
	//ftss:guardedby mu
	okC *obs.Counter
	//ftss:guardedby mu
	missC *obs.Counter
	//ftss:guardedby mu
	retryC *obs.Counter
	//ftss:guardedby mu
	invalidC *obs.Counter
	//ftss:guardedby mu
	dupC *obs.Counter
	//ftss:guardedby mu
	corruptC *obs.Counter
	//ftss:guardedby mu
	pollsC *obs.Counter
	//ftss:guardedby mu
	marksC *obs.Counter
	//ftss:guardedby mu
	frontierG *obs.Gauge
	//ftss:guardedby mu
	latH *obs.Histogram

	// Tracing state, populated only when the store collects spans or
	// events (col/events nil otherwise; every hook site is nil-guarded so
	// disabled tracing costs one branch).
	col    *obs.Collector // shared, internally synchronized
	events obs.Sink       // shared, must be concurrency-safe
	//ftss:guardedby mu
	sealedAt []async.Time // per-op first seal time (0: not yet sealed)
	//ftss:guardedby mu
	commitAt []async.Time // per-op first commit time on reps[0]
	//ftss:guardedby mu
	parents []obs.SpanID // per-op client trace context
	//ftss:guardedby mu
	openMarks []markEvent // corruption strikes not yet reconverged
	//ftss:guardedby mu
	contEvents uint64 // monotonic containment-span index
	//ftss:guardedby mu
	contH *obs.Histogram
	//ftss:guardedby mu
	reconvC *obs.Counter
}

// newShard builds shard idx of a store with config cfg. All randomness
// derives from (cfg.Seed, idx), so equal configs build equal shards.
// col is the store-wide span collector, nil when tracing is off.
func newShard(idx int, cfg Config, col *obs.Collector) *Shard {
	base := cfg.Seed*1_000_003 + int64(idx)*7919
	weak := &detector.SimulatedWeak{N: cfg.Replicas, Seed: base}
	reps, aps := smr.NewBatchingReplicas(cfg.Replicas, weak, smr.BatchPolicy{
		MaxBatch: cfg.MaxBatch, Window: 2, HoldFor: 2, Seed: base + 1,
	})
	for _, r := range reps {
		r.SetPipeline(cfg.Pipeline)
	}
	eng := async.MustNewEngine(aps, async.Config{
		Seed: base + 2, TickEvery: async.Millisecond,
		MinDelay: async.Millisecond, MaxDelay: 2 * async.Millisecond,
	})
	rec := chaos.NewRecorder(cfg.Replicas)
	reg := obs.NewRegistry()
	pollsC, marksC := reg.Counter("polls"), reg.Counter("marks")
	rec.Instrument(&chaos.RecorderInstruments{Polls: pollsC, Marks: marksC})
	s := &Shard{
		idx: idx, cfg: cfg,
		reps: reps, eng: eng, rec: rec, reg: reg,
		ic:   core.NewIncrementalChecker(rec.History(), WindowAgreement, stabPolls),
		crng: rand.New(rand.NewSource(base + 3)),
		kv:   make(map[string]kvEntry),

		nextPoll: pollEvery,

		opsC: reg.Counter("ops"), appliedC: reg.Counter("applied"),
		okC: reg.Counter("cas_ok"), missC: reg.Counter("cas_mismatch"),
		retryC: reg.Counter("retries"), invalidC: reg.Counter("invalid"),
		dupC: reg.Counter("dups"), corruptC: reg.Counter("corruptions"),
		pollsC: pollsC, marksC: marksC,
		frontierG: reg.Gauge("frontier"),
		latH:      reg.Histogram("latency_us", latencyBounds),
	}
	if cfg.CorruptEvery > 0 {
		s.nextCorrupt = cfg.CorruptEvery //ftss:unguarded constructor; the shard is not yet published
	}
	s.col, s.events = col, cfg.Events //ftss:unguarded constructor; the shard is not yet published
	if col != nil || cfg.Events != nil {
		// Containment instruments exist only when someone watches, so
		// untraced metric snapshots stay byte-identical with older runs.
		//ftss:unguarded constructor; the shard is not yet published
		s.contH = reg.Histogram("containment_polls", containmentBounds)
		s.reconvC = reg.Counter("reconverged") //ftss:unguarded constructor; the shard is not yet published
	}
	if col != nil {
		// Seal times come from every replica (an op's first seal is on
		// whichever frontend it was submitted to); commit times only from
		// reps[0], whose expansion applyLocked folds.
		all := &smr.BatchTrace{Sealed: s.noteSealedLocked}
		first := &smr.BatchTrace{Sealed: s.noteSealedLocked, Committed: s.noteCommittedLocked}
		for i, r := range reps {
			if i == 0 {
				r.SetTrace(first)
			} else {
				r.SetTrace(all)
			}
		}
	}
	return s
}

// noteSealedLocked records an op's first seal time. It runs inside the
// engine step, which only ever executes under s.mu (DriveAll holds it
// while it drives the engine).
func (s *Shard) noteSealedLocked(cmd smr.Value, _ smr.Value, at async.Time) {
	seq := int64(cmd)
	if seq < 0 || seq >= int64(len(s.sealedAt)) {
		return // corruption-minted value
	}
	if s.sealedAt[seq] == 0 {
		s.sealedAt[seq] = at
	}
}

// noteCommittedLocked records an op's first commit time on the fold
// source; like the seal hook, it fires only under s.mu.
func (s *Shard) noteCommittedLocked(cmd smr.Value, _ uint64, at async.Time) {
	seq := int64(cmd)
	if seq < 0 || seq >= int64(len(s.commitAt)) {
		return
	}
	if s.commitAt[seq] == 0 {
		s.commitAt[seq] = at
	}
}

// Submit queues one op and returns its shard-local ID. The op's result
// becomes available (Result) once its batch commits during a subsequent
// DriveAll.
func (s *Shard) Submit(op Op) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := int64(len(s.ops))
	now := s.eng.Now()
	s.ops = append(s.ops, op)
	s.firstAt = append(s.firstAt, now)
	s.done = append(s.done, false)
	s.results = append(s.results, Result{})
	if s.col != nil {
		s.col.Claim(obs.DeriveSpanID(s.cfg.Seed, uint64(s.idx)<<1, uint64(seq)),
			fmt.Sprintf("shard%03d/%d", s.idx, seq))
		s.sealedAt = append(s.sealedAt, 0)
		s.commitAt = append(s.commitAt, 0)
		s.parents = append(s.parents, op.Trace)
	}
	s.pending++
	s.opsC.Inc()
	s.reps[s.nextRep].Submit(smr.Value(seq))
	s.nextRep = (s.nextRep + 1) % len(s.reps)
	return seq
}

// DriveAll advances the shard until every submitted op has applied, or
// maxSim further sim-time passes (an error: the shard is stuck).
// The horizon is relative to the call so a long-lived server can keep
// driving the same shard indefinitely.
func (s *Shard) DriveAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	deadline := s.eng.Now() + maxSim
	for s.pending > 0 {
		if s.eng.Now() >= deadline {
			return fmt.Errorf("%d ops unapplied at sim horizon %dms",
				s.pending, s.eng.Now()/async.Millisecond)
		}
		s.advanceLocked(s.eng.Now() + 20*async.Millisecond)
	}
	return nil
}

func (s *Shard) advanceLocked(until async.Time) {
	for {
		next := until
		if s.nextCorrupt > 0 && s.nextCorrupt < next {
			next = s.nextCorrupt
		}
		if s.nextPoll < next {
			next = s.nextPoll
		}
		s.eng.RunUntil(next)
		now := s.eng.Now()
		if s.nextCorrupt > 0 && now >= s.nextCorrupt {
			victim := s.crng.Intn(len(s.reps))
			s.reps[victim].Replica.Corrupt(s.crng)
			s.rec.Mark()
			s.corruptC.Inc()
			s.nextCorrupt += s.cfg.CorruptEvery
			if s.col != nil || s.events != nil {
				s.openMarks = append(s.openMarks, markEvent{at: now, poll: s.pollsC.Value()})
			}
			if s.events != nil {
				s.events.Emit(obs.Event{Kind: "shard_corrupt", T: uint64(now), P: s.idx,
					Fields: []obs.KV{{K: "victim", V: int64(victim)}}})
			}
		}
		if now >= s.nextPoll {
			s.applyLocked(now)
			s.pollLocked()
			s.retryLocked(now)
			s.nextPoll += pollEvery
		}
		if now >= until {
			break
		}
	}
	s.applyLocked(s.eng.Now())
}

// applyLocked folds newly committed commands into the CAS state
// machine. The command stream is reps[0]'s expansion — all replicas
// agree on it outside forfeited (corrupted) spans, and ops lost to a
// forfeit are resubmitted by retryLocked, so the fold is both
// deterministic and complete.
func (s *Shard) applyLocked(now async.Time) {
	dec := s.reps[0].Decided()
	for ; s.applyIdx < len(dec); s.applyIdx++ {
		seq := int64(dec[s.applyIdx])
		if seq < 0 || seq >= int64(len(s.ops)) {
			// A corruption-minted command value. The frontends only ever
			// expand real batch contents, so this counts wire-level
			// garbage that survived as a decided batch ID collision.
			s.invalidC.Inc()
			continue
		}
		if s.done[seq] {
			s.dupC.Inc() // a retry's second copy, applied after the first
			continue
		}
		op := s.ops[seq]
		e := s.kv[op.Key]
		var res Result
		if op.Old == e.ver {
			e = kvEntry{ver: e.ver + 1, val: op.Val}
			s.kv[op.Key] = e
			res = Result{OK: true, Version: e.ver, Val: e.val}
			s.okC.Inc()
		} else {
			res = Result{OK: false, Version: e.ver, Val: e.val}
			s.missC.Inc()
		}
		s.done[seq] = true
		s.results[seq] = res
		s.pending--
		s.appliedC.Inc()
		s.latH.Observe(uint64(now - s.firstAt[seq]))
		s.lastProgress = now
		if s.col != nil {
			s.spanOpLocked(seq, now)
		}
	}
}

// spanOpLocked records op seq's three phase spans at apply time. The seal and
// commit stamps are first-wins from the smr hooks; an op whose first
// submission was forfeited and retried can apply before its retry's
// seal fires, so each boundary clamps to stay monotone.
func (s *Shard) spanOpLocked(seq int64, now async.Time) {
	id := obs.DeriveSpanID(s.cfg.Seed, uint64(s.idx)<<1, uint64(seq))
	parent := s.parents[seq]
	submit := s.firstAt[seq]
	sealed := s.sealedAt[seq]
	if sealed < submit {
		sealed = submit
	}
	committed := s.commitAt[seq]
	if committed < sealed {
		committed = sealed
	}
	if committed > now {
		committed = now
	}
	if sealed > committed {
		sealed = committed
	}
	s.col.Record(obs.Span{ID: id, Parent: parent, Phase: "store.queue", P: s.idx,
		Start: uint64(submit), End: uint64(sealed)})
	s.col.Record(obs.Span{ID: id, Parent: parent, Phase: "store.slot", P: s.idx,
		Start: uint64(sealed), End: uint64(committed)})
	s.col.Record(obs.Span{ID: id, Parent: parent, Phase: "store.apply", P: s.idx,
		Start: uint64(committed), End: uint64(now)})
}

// pollLocked records one Definition 2.4 observation: each replica's
// cell is (group frontier W, hash of its log window (W−hashWindow, W]),
// so the incremental checker's Σ (WindowAgreement) demands that every
// stable segment reach and keep identical recent logs with a
// non-regressing frontier.
func (s *Shard) pollLocked() {
	// One frontier read per replica: up collects who has a frontier, w the
	// least frontier among them.
	up := proc.NewSet()
	w := uint64(0)
	for i, r := range s.reps {
		f, ok := r.Frontier()
		if !ok {
			continue
		}
		if up.Len() == 0 || f < w {
			w = f
		}
		up.Add(proc.ID(i))
	}
	if up.Len() == 0 {
		return // nothing decided anywhere yet: no observation to record
	}
	lo := uint64(0)
	if w+1 > hashWindow {
		lo = w + 1 - hashWindow
	}
	cells := make(map[proc.ID]chaos.DecisionCell, len(s.reps))
	for i, r := range s.reps {
		if !up.Has(proc.ID(i)) {
			continue
		}
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		for slot := lo; slot <= w; slot++ {
			mix(slot)
			if v, ok := r.Get(slot); ok {
				mix(1)
				mix(uint64(v))
			} else {
				mix(0)
			}
		}
		cells[proc.ID(i)] = chaos.DecisionCell{OK: true, Round: w, Val: int64(h)}
	}
	s.rec.Observe(up, cells)
	s.frontierG.SetMax(int64(w))
	if len(s.openMarks) > 0 && len(cells) == len(s.reps) && cellsAgree(cells) {
		s.reconvergeLocked()
	}
}

// cellsAgree reports whether every cell carries the same window hash —
// the poll-level reconvergence signal (Round is w for all by
// construction).
func cellsAgree(cells map[proc.ID]chaos.DecisionCell) bool {
	first := true
	var val int64
	for _, c := range cells {
		if first {
			val, first = c.Val, false
		} else if c.Val != val {
			return false
		}
	}
	return true
}

// reconvergeLocked closes every open corruption strike at the current
// (fully agreeing) poll: one containment span per strike, measuring
// sim time and polls from the strike to this poll. Strikes that stack
// before reconvergence all close here — each gets its own span.
func (s *Shard) reconvergeLocked() {
	nowT := s.eng.Now()
	nowP := s.pollsC.Value()
	for _, m := range s.openMarks {
		polls := nowP - m.poll
		if s.col != nil {
			s.col.Record(obs.Span{
				ID:    obs.DeriveSpanID(s.cfg.Seed, uint64(s.idx)<<1|1, s.contEvents),
				Phase: "store.containment", P: s.idx,
				Start: uint64(m.at), End: uint64(nowT),
				Detail: fmt.Sprintf("polls=%d", polls),
			})
		}
		s.contEvents++
		if s.contH != nil {
			s.contH.Observe(polls)
			s.reconvC.Inc()
		}
		if s.events != nil {
			s.events.Emit(obs.Event{Kind: "shard_reconverge", T: uint64(nowT), P: s.idx,
				Fields: []obs.KV{{K: "polls", V: int64(polls)}}})
		}
	}
	s.openMarks = s.openMarks[:0]
}

// retryLocked resubmits pending ops when the shard has stalled: no op
// applied for retryAfter while some are still pending. That is the
// forfeit signature — a batch was expanded by its proposer but skipped
// by reps[0]'s fold over a corrupted span, so its ops will never apply
// without resubmission. A merely backlogged shard keeps applying and
// never trips this, so retries don't multiply load under deep queues.
// Re-deciding an already-applied op is harmless — applyLocked dedupes
// by sequence number.
func (s *Shard) retryLocked(now async.Time) {
	for s.scanFrom < int64(len(s.ops)) && s.done[s.scanFrom] {
		s.scanFrom++
	}
	if s.pending == 0 || now-s.lastProgress < retryAfter {
		return
	}
	for seq := s.scanFrom; seq < int64(len(s.ops)); seq++ {
		if s.done[seq] {
			continue
		}
		s.reps[s.nextRep].Submit(smr.Value(seq))
		s.nextRep = (s.nextRep + 1) % len(s.reps)
		s.retryC.Inc()
	}
	s.lastProgress = now // pace the next stall round trip
}

// Result returns op id's post-commit register state, if it has applied.
func (s *Shard) Result(id int64) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= int64(len(s.done)) || !s.done[id] {
		return Result{}, false
	}
	return s.results[id], true
}

// Get reads a key's current version and value (0, 0 when absent).
func (s *Shard) Get(key string) (version uint64, val int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.kv[key]
	return e.ver, e.val
}

// Pending returns how many submitted ops have not yet applied.
func (s *Shard) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Now returns the shard's sim clock.
func (s *Shard) Now() async.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Now()
}

// Verdict returns the shard's incremental Definition 2.4 verdict over
// every poll so far (nil: all closed segments stabilized and stayed
// clean).
func (s *Shard) Verdict() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ic.Verdict()
}

// Polls returns how many Definition 2.4 observations were recorded.
func (s *Shard) Polls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pollsC.Value()
}

// Marks returns how many systemic-failure marks (corruptions) were
// recorded.
func (s *Shard) Marks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.marksC.Value()
}

// Registry returns the shard's metrics registry (instruments are
// internally synchronized; the registry pointer itself is immutable).
func (s *Shard) Registry() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}
