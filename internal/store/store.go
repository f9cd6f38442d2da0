// Package store is the client-facing sharded key-value service: a
// versioned compare-and-swap store (the dedis/tlc QSCOD CAS shape:
// every key is a register carrying a version and a value, and the only
// write is "swap from version v") replicated by the smr batching +
// pipelining stack and sharded across N completely independent Π⁺
// consensus groups.
//
// Sharding is a deterministic hash router: FNV-1a(key) mod shards.
// Each shard owns three replicas on a private seeded discrete-event
// engine, so a shard is a pure function of (config, its own submit
// sequence) — shards share no state, fail independently (the paper's
// Definition 2.4 verdict is computed per shard from its own poll
// trace), and scale by addition: aggregate capacity in simulated time
// is N × one group's throughput, as E15 tabulates; the inproc-batch
// workload of the repo benchmark measures it in wall-clock time.
//
// Concurrency model: every Shard is a monitor (one mutex over all
// state); the Store's driver fans shards across a bounded worker pool
// with results merged in shard order, so reports and metric snapshots
// are byte-identical for any worker count.
//
//ftss:conc shards are driven from worker pools and served from connection goroutines; all shard state is monitor-guarded
package store

import (
	"fmt"
	"io"

	"ftss/internal/obs"
	"ftss/internal/pool"
	"ftss/internal/sim/async"
)

// Op is one compare-and-swap command: install Val on Key if the key's
// current version is exactly Old (0 means "key absent"). A mismatched
// Old still commits — the reply carries the register's actual version
// and value, so a failed CAS doubles as a versioned read. Trace is the
// client's span ID (0 for none), linked as the parent of the op's
// server-side spans when tracing is on.
type Op struct {
	Key   string
	Old   uint64
	Val   int64
	Trace obs.SpanID
}

// Result is the register's state after an op's batch committed.
type Result struct {
	// OK reports whether the swap applied.
	OK bool
	// Version and Val are the register's post-commit state.
	Version uint64
	Val     int64
}

// Config parameterizes a Store. The zero value of every field gets a
// production default, so Config{Shards: 16, Seed: 1} is a full store.
type Config struct {
	// Shards is the number of independent consensus groups. Default 1.
	Shards int
	// Replicas is the group size. Default 3.
	Replicas int
	// Seed derives every shard's engine, batching, and corruption
	// randomness. Two stores with equal configs and equal per-shard
	// submit sequences are byte-identical.
	Seed int64
	// MaxBatch is the smr sealing bound. Default 64.
	MaxBatch int
	// Pipeline is the smr lookahead depth. Default 2.
	Pipeline int
	// CorruptEvery, when positive, corrupts one seeded-random replica
	// of every shard each interval (sim time) and marks the systemic
	// failure in the shard's trace — the soak configuration that makes
	// the per-shard verdicts non-vacuous. Zero disables corruption.
	CorruptEvery async.Time
	// Trace enables causal op tracing: per-op queue/slot/apply spans
	// and per-corruption containment spans land in a store-wide
	// collector (TraceSpans, WriteTrace). Off by default; disabled
	// tracing costs one nil check per hook site.
	Trace bool
	// Events, when non-nil, receives shard lifecycle events
	// (shard_corrupt, shard_reconverge) stamped with sim time. The sink
	// must be safe for concurrent Emit.
	Events obs.Sink
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 2
	}
	return c
}

const (
	// pollEvery is the Definition 2.4 poll cadence in sim time.
	pollEvery = 5 * async.Millisecond
	// stabPolls is the stabilization budget in polls. A fixed constant
	// for now; the plan is to derive it from Config (ROADMAP item 2(a)).
	stabPolls = 8
	// retryAfter resubmits an op whose first submission was forfeited
	// to a corrupted span (the smr validity trade: agreement over a
	// corrupted window is forfeit, so a batch expanded by some replicas
	// can be skipped by others). Retries are idempotent — an op applies
	// at most once.
	retryAfter = 200 * async.Millisecond
	// maxSim bounds how long one DriveAll may run a shard.
	maxSim = 120_000 * async.Millisecond
)

// Store is the sharded service.
type Store struct {
	cfg    Config
	shards []*Shard
	col    *obs.Collector // nil unless cfg.Trace
}

// New builds a store with cfg.Shards idle shards.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, shards: make([]*Shard, cfg.Shards)}
	if cfg.Trace {
		st.col = obs.NewCollector()
	}
	for i := range st.shards {
		st.shards[i] = newShard(i, cfg, st.col)
	}
	return st
}

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// ShardFor routes a key: FNV-1a over the key bytes, mod shards. The
// router is pure, so any two processes with the same config agree on
// every key's home shard.
func (st *Store) ShardFor(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(len(st.shards)))
}

// Shard returns shard i for direct driving (the server owns one
// goroutine per shard).
func (st *Store) Shard(i int) *Shard { return st.shards[i] }

// Submit routes op to its shard and queues it, returning the shard
// index and the shard-local op ID.
func (st *Store) Submit(op Op) (shard int, id int64) {
	shard = st.ShardFor(op.Key)
	return shard, st.shards[shard].Submit(op)
}

// Drive runs every shard until its queue drains, fanning the shards
// across at most workers goroutines. Each shard's execution is a pure
// function of its own submit sequence, so the worker count changes
// wall-clock time only — Report and MetricsSnapshot afterwards are
// byte-identical for any workers value.
func (st *Store) Drive(workers int) error {
	errs := st.fanOut(workers, func(sh *Shard) error { return sh.DriveAll() })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %03d: %w", i, err)
		}
	}
	return nil
}

// fanOut runs fn on every shard across at most workers goroutines and
// returns the per-shard results in shard order; workers ≤ 1 is an inline
// loop with no goroutine (internal/pool).
func (st *Store) fanOut(workers int, fn func(*Shard) error) []error {
	return pool.Run(workers, len(st.shards), func(i int) error { return fn(st.shards[i]) })
}

// Makespan returns the largest shard sim-clock: the virtual time by
// which every shard had drained. With one engine per shard the shards
// run concurrently in the modeled system, so aggregate throughput is
// applied-ops divided by the makespan.
func (st *Store) Makespan() async.Time {
	var max async.Time
	for _, sh := range st.shards {
		if t := sh.Now(); t > max {
			max = t
		}
	}
	return max
}

// MetricsSnapshot merges every shard's registry — per-shard copies
// under store.shardNNN. prefixes plus a store.all. aggregate — and
// renders the sorted snapshot. Merging happens here, in shard order, on
// the caller's goroutine, so the bytes are independent of how the
// shards were driven.
func (st *Store) MetricsSnapshot() []byte {
	return st.merged().Snapshot()
}

func (st *Store) merged() *obs.Registry {
	m := obs.NewRegistry()
	for i, sh := range st.shards {
		m.Merge(fmt.Sprintf("store.shard%03d.", i), sh.Registry())
		m.Merge("store.all.", sh.Registry())
	}
	return m
}

// TraceSpans returns the sorted span set collected so far, nil when
// tracing is disabled. Sorting makes the result independent of how the
// shards were driven — byte-identical for any Drive worker count.
func (st *Store) TraceSpans() []obs.Span {
	if st.col == nil {
		return nil
	}
	return st.col.Spans()
}

// WriteTrace writes the span set as sorted JSONL, the format
// cmd/ftss-tracev reads. A no-op when tracing is disabled.
func (st *Store) WriteTrace(w io.Writer) error {
	if st.col == nil {
		return nil
	}
	return st.col.WriteJSONL(w)
}

// TraceCollisions returns how many span-ID claims conflicted (0 in any
// healthy run; non-zero means the trace merged distinct ops).
func (st *Store) TraceCollisions() uint64 {
	return st.col.Collisions()
}

// Verdicts returns every shard's incremental Definition 2.4 verdict, in
// shard order. Nil entries are passing shards.
func (st *Store) Verdicts() []error {
	out := make([]error, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.Verdict()
	}
	return out
}

// Stats is the merged, deterministic summary of a store run. Every
// field derives from per-shard instruments merged in shard order, so
// equal configs and submit sequences yield equal Stats for any Drive
// worker count.
type Stats struct {
	Ops, Applied, OK, Mismatch, Retries, Marks uint64
	// P50 and P99 are latency quantiles in sim microseconds; P50In and
	// P99In report whether the rank landed inside a finite bucket.
	P50, P99     uint64
	P50In, P99In bool
	// Makespan is the slowest shard's sim clock; Throughput is
	// Applied·10⁶/Makespan — ops per simulated second.
	Makespan   async.Time
	Throughput uint64
	// VerdictsPass counts shards whose Definition 2.4 verdict is clean.
	VerdictsPass, Shards int
}

// Stats computes the merged run summary.
func (st *Store) Stats() Stats {
	m := st.merged()
	s := Stats{
		Ops:      m.Counter("store.all.ops").Value(),
		Applied:  m.Counter("store.all.applied").Value(),
		OK:       m.Counter("store.all.cas_ok").Value(),
		Mismatch: m.Counter("store.all.cas_mismatch").Value(),
		Retries:  m.Counter("store.all.retries").Value(),
		Marks:    m.Counter("store.all.marks").Value(),
		Makespan: st.Makespan(),
		Shards:   len(st.shards),
	}
	lat := m.Histogram("store.all.latency_us", latencyBounds)
	s.P50, s.P50In = lat.Quantile(0.50)
	s.P99, s.P99In = lat.Quantile(0.99)
	if s.Makespan > 0 {
		s.Throughput = s.Applied * 1_000_000 / uint64(s.Makespan)
	}
	for _, err := range st.Verdicts() {
		if err == nil {
			s.VerdictsPass++
		}
	}
	return s
}

// Report writes the deterministic run summary: totals, latency
// quantiles from the merged histogram, sim-time throughput, and one
// Definition 2.4 verdict line per shard. Every number is integral and
// derived from merged instruments, so the report is byte-identical for
// any Drive worker count.
func (st *Store) Report(w io.Writer) error {
	s := st.Stats()
	fmt.Fprintf(w, "store: shards=%d replicas=%d ops=%d applied=%d cas_ok=%d cas_mismatch=%d retries=%d marks=%d\n",
		len(st.shards), st.cfg.Replicas, s.Ops, s.Applied, s.OK, s.Mismatch, s.Retries, s.Marks)
	fmt.Fprintf(w, "store: latency p50=%dµs(%s) p99=%dµs(%s) makespan=%dms throughput=%d ops/s (sim)\n",
		s.P50, obs.BoundTag(s.P50In), s.P99, obs.BoundTag(s.P99In), s.Makespan/async.Millisecond, s.Throughput)

	pass := 0
	for i, err := range st.Verdicts() {
		sh := st.shards[i]
		if err == nil {
			pass++
			fmt.Fprintf(w, "store: shard %03d verdict pass (polls=%d marks=%d)\n",
				i, sh.Polls(), sh.Marks())
		} else {
			fmt.Fprintf(w, "store: shard %03d verdict FAIL (polls=%d marks=%d): %v\n",
				i, sh.Polls(), sh.Marks(), err)
		}
	}
	fmt.Fprintf(w, "store: verdicts %d/%d pass\n", pass, len(st.shards))
	if pass != len(st.shards) {
		return fmt.Errorf("store: %d/%d shard verdicts failed", len(st.shards)-pass, len(st.shards))
	}
	return nil
}
