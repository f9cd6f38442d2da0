package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"ftss/internal/sim/async"
	"ftss/internal/store"
)

// roundOps is how many ops one inproc-batch round submits before it
// drives: enough that every shard's batches fill.
const roundOps = 1024

// workload is one named load shape. Its sizes are part of the
// benchmark's definition: a repetition always runs the same op count on
// a fresh store, so per-op counts are comparable across commits.
type workload struct {
	name string
	why  string
	cfg  store.Config
	keys int
	tcp  bool // false: no sockets, Store.Submit + Store.Drive in rounds
	ops  int  // ops per repetition (a multiple of roundOps when !tcp)
}

// sizes are the op counts that vary between the real benchmark and the
// toy run the tests make.
type sizes struct {
	warmup    int // ops on a throwaway store before each repetition, tcp-* workloads (one round on inproc-batch)
	tcpOps    int // ops per repetition, tcp-* workloads
	rounds    int // rounds per repetition, inproc-batch
	echoOps   int // round trips per client, net.echo probe
	events    int // engine steps, async probe
	smrCmds   int // commands at batch 1, smr probe (×64 at batch 64)
	pollsLo   int // poll index where core.poll_ns_growth takes its base cost
	pollsHi   int // poll index where it takes the grown cost
	codecRuns int // ops pushed through the four codec calls, wire probe
}

var fullSizes = sizes{
	warmup: 200, tcpOps: 3000, rounds: 100,
	echoOps: 4000, events: 400_000, smrCmds: 400,
	pollsLo: 1000, pollsHi: 50_000, codecRuns: 200_000,
}

var toySizes = sizes{
	warmup: 20, tcpOps: 120, rounds: 1,
	echoOps: 50, events: 2000, smrCmds: 8,
	pollsLo: 100, pollsHi: 400, codecRuns: 500,
}

func workloads(sz sizes) []workload {
	spread := store.Config{Shards: 16, Seed: 1}
	fault := spread
	fault.CorruptEvery = 60 * async.Millisecond
	return []workload{
		{name: "tcp-spread", cfg: spread, keys: 4096, tcp: true, ops: sz.tcpOps,
			why: "16 shards, 4096 keys, 3000 ops/rep over loopback TCP, fault-free: the default path, one op driven alone per shard"},
		{name: "tcp-hot-shard", cfg: store.Config{Shards: 1, Seed: 1}, keys: 256, tcp: true, ops: sz.tcpOps,
			why: "1 shard, 256 keys, 3000 ops/rep over TCP: every connection contends for one monitor and one growing log"},
		{name: "tcp-fault", cfg: fault, keys: 4096, tcp: true, ops: sz.tcpOps,
			why: "tcp-spread with one replica per shard corrupted every 60 sim-ms: cost moved onto the recovery path shows here"},
		{name: "inproc-batch", cfg: spread, keys: 4096, ops: sz.rounds * roundOps,
			why: "no sockets or wire: 100 rounds/rep of 1024 Submit then Drive(1), so batches fill and per-op bookkeeping dominates"},
	}
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clientCount is the closed-loop connection count: the protocol allows
// one op in flight per connection, and more connections than cores
// would measure the scheduler.
func clientCount() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// keyNames is the register name table, built once so that the timed
// loops format nothing.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	return names
}

// keyStream is client c's key choices: a pure function of (seed, c), the
// ftss-loadgen model with uniform keys. The store never sees the seed,
// only the requests built from this stream and from earlier replies.
func keyStream(seed int64, c, ops, keys int) []int32 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	stream := make([]int32, ops)
	for i := range stream {
		stream[i] = int32(rng.Intn(keys))
	}
	return stream
}

// opValue is the value client c writes with its n-th op: unique per op,
// so the checker can tell whose write a register holds.
func opValue(c, n int) int64 { return int64(c)*1_000_000 + int64(n) }
