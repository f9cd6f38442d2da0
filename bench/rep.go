package main

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"ftss/internal/obs"
	"ftss/internal/sim/async"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// rep is one measured repetition: a fixed op count against a fresh store.
type rep struct {
	meter
	setup     time.Duration // store.New + listen + dials; measure adds the warm-up pass before it
	attempted int
	verdict   verdict
	rtts      []int64 // ns, ascending: per op over TCP, per round in process
	counts    storeCounts
	spans     []obs.Span // the store's own spans, program-traced repetitions only
}

// storeCounts is the store's account of a repetition, read through its
// public surface after the timed region.
type storeCounts struct {
	applied, retries, dups, invalid, marks, polls uint64

	simTotal       async.Time // Σ shard sim clocks
	slots          int64      // Σ shard frontier gauges
	simP50, simP99 uint64     // the store's sim-time latency histogram
	verdictFails   int
}

func readStore(st *store.Store) (storeCounts, store.Stats) {
	s := st.Stats()
	c := storeCounts{
		applied: s.Applied, retries: s.Retries, marks: s.Marks,
		simP50: s.P50, simP99: s.P99,
		verdictFails: s.Shards - s.VerdictsPass,
	}
	for i := 0; i < st.NumShards(); i++ {
		sh := st.Shard(i)
		reg := sh.Registry()
		c.simTotal += sh.Now()
		c.polls += sh.Polls()
		c.slots += reg.Gauge("frontier").Value()
		c.dups += reg.Counter("dups").Value()
		c.invalid += reg.Counter("invalid").Value()
	}
	return c, s
}

// judge runs the client-side check against the store's final state.
func (r *rep) judge(st *store.Store, keys []string, ops [][]opRecord) {
	var s store.Stats
	r.counts, s = readStore(st)
	r.verdict = check(observed{
		keys: keys, attempted: r.attempted, ops: ops,
		shardFor: st.ShardFor,
		get:      func(key string) (uint64, int64) { return st.Shard(st.ShardFor(key)).Get(key) },
		applied:  s.Applied, casOK: s.OK, casMismatch: s.Mismatch,
	})
	r.spans = st.TraceSpans()
}

// tcpClient is one closed-loop connection. Everything it touches while
// timed is allocated before the heap baseline.
type tcpClient struct {
	conn   net.Conn
	stream []int32
	ver    []uint64 // last version each key showed this client
	recs   []opRecord
	rtts   []int64
	err    error
}

// run is the ftss-loadgen client loop: one op in flight, the next CAS on
// a key guesses the version the last reply for that key showed.
func (cl *tcpClient) run(c int, keys []string, seed int64, traced bool) error {
	var buf []byte
	for n, k := range cl.stream {
		req := wire.CASRequest{ID: uint64(c)<<32 | uint64(n), Old: cl.ver[k], Val: opValue(c, n), Key: keys[k]}
		var span uint64
		if traced {
			span = uint64(obs.DeriveSpanID(seed, uint64(c), uint64(n)))
		}
		var err error
		if buf, err = wire.AppendFrameTrace(buf[:0], 0, span, req); err != nil {
			return err
		}
		sent := time.Now()
		if _, err := cl.conn.Write(buf); err != nil {
			return err
		}
		from, _, payload, err := wire.ReadFrameTrace(cl.conn)
		if err != nil {
			return err
		}
		rtt := time.Since(sent)
		reply, ok := payload.(wire.CASReply)
		if !ok {
			return fmt.Errorf("op %d: reply is a %T", n, payload)
		}
		cl.rtts = append(cl.rtts, int64(rtt))
		cl.recs = append(cl.recs, opRecord{
			key: k, from: int32(from), echoed: reply.ID == req.ID, ok: reply.OK,
			old: req.Old, val: req.Val, version: reply.Version, rval: reply.Val,
		})
		cl.ver[k] = reply.Version
	}
	return nil
}

// tcpRig is a fresh store served on a loopback listener, with the
// clients' connections dialled: everything set-up builds.
type tcpRig struct {
	st     *store.Store
	conns  []net.Conn
	took   time.Duration
	stop   chan struct{}
	served chan error
}

func openTCP(cfg store.Config, clients int) (*tcpRig, error) {
	t0 := time.Now()
	rig := &tcpRig{st: store.New(cfg), stop: make(chan struct{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { rig.served <- store.NewServer(rig.st).Serve(ln, rig.stop) }()
	for c := 0; c < clients; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, conn)
	}
	rig.took = time.Since(t0)
	return rig, nil
}

// close hangs up and waits for the server to have stopped.
func (rig *tcpRig) close() error {
	for _, conn := range rig.conns {
		conn.Close()
	}
	close(rig.stop)
	return <-rig.served
}

// runTCP drives ops closed-loop CAS requests through store.Server over
// loopback. With traced set the store collects its own spans and the
// requests carry span IDs (the program-traced repetition).
func runTCP(w workload, seed int64, ops int, traced bool) (*rep, error) {
	clients := clientCount()
	per := ops / clients
	keys := keyNames(w.keys)
	cs := make([]*tcpClient, clients)
	for c := range cs {
		cs[c] = &tcpClient{
			stream: keyStream(seed, c, per, w.keys), ver: make([]uint64, w.keys),
			recs: make([]opRecord, 0, per), rtts: make([]int64, 0, per),
		}
	}
	r := &rep{attempted: per * clients, rtts: make([]int64, 0, per*clients)}

	cfg := w.cfg
	cfg.Trace = traced
	rig, err := openTCP(cfg, clients)
	if err != nil {
		return nil, err
	}
	r.setup = rig.took

	r.meter.start()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c, cl := range cs {
		cl.conn = rig.conns[c]
		go func() {
			defer wg.Done()
			cl.err = cl.run(c, keys, seed, traced)
		}()
	}
	wg.Wait()
	r.meter.stop(rig.st)
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	recs := make([][]opRecord, clients)
	for c, cl := range cs {
		recs[c] = cl.recs
		r.rtts = append(r.rtts, cl.rtts...)
	}
	slices.Sort(r.rtts)
	r.judge(rig.st, keys, recs)
	for c, cl := range cs {
		if cl.err != nil {
			r.verdict.reasons = append(r.verdict.reasons, fmt.Sprintf("client %d: %v", c, cl.err))
		}
	}
	return r, nil
}

// runInproc drives ops through Store.Submit and Store.Drive in rounds of
// roundOps, with no server, codec or socket. An op's latency is its
// round's: nothing comes back before Drive returns. Drive gets one
// worker: with one per core every round waits for the slower of two
// cores that the collector and the machine's other tenants also want,
// and ten runs of one commit spread twice as far (see README,
// Steadiness). With a tracer, each round is a span whose phases are the
// Submit loop, the Drive and the Result loop (the replay of this
// workload).
func runInproc(w workload, seed int64, ops int, traced bool, tr *tracer) (*rep, error) {
	rounds := ops / roundOps
	keys := keyNames(w.keys)
	stream := keyStream(seed, 0, rounds*roundOps, w.keys)
	ver := make([]uint64, w.keys)
	recs := make([]opRecord, 0, len(stream))
	ids := make([]int64, roundOps)
	r := &rep{attempted: len(stream), rtts: make([]int64, 0, rounds)}

	t0 := time.Now()
	cfg := w.cfg
	cfg.Trace = traced
	st := store.New(cfg)
	r.setup = time.Since(t0)

	var driveErr error
	var ts [4]uint64
	r.meter.start()
	for round := 0; round < rounds; round++ {
		sent := time.Now()
		base := round * roundOps
		ts[0] = tr.now()
		for i, k := range stream[base : base+roundOps] {
			op := store.Op{Key: keys[k], Old: ver[k], Val: opValue(0, base+i)}
			if traced {
				op.Trace = obs.DeriveSpanID(seed, 0, uint64(base+i))
			}
			shard, id := st.Submit(op)
			ids[i] = id
			recs = append(recs, opRecord{key: k, from: int32(shard), old: op.Old, val: op.Val})
		}
		ts[1] = tr.now()
		if driveErr = st.Drive(1); driveErr != nil {
			recs = recs[:base] // the round's ops got no result
			break
		}
		ts[2] = tr.now()
		for i := range ids {
			rec := &recs[base+i]
			res, ok := st.Shard(int(rec.from)).Result(ids[i])
			rec.echoed = ok
			rec.ok, rec.version, rec.rval = res.OK, res.Version, res.Val
			ver[rec.key] = res.Version
		}
		ts[3] = tr.now()
		r.rtts = append(r.rtts, int64(time.Since(sent)))
		tr.phases(obs.DeriveSpanID(seed, 1<<32, uint64(round)), -1, ts[0], ts[3], roundPhases, ts[:])
	}
	r.meter.stop(st)

	slices.Sort(r.rtts)
	r.judge(st, keys, [][]opRecord{recs})
	if driveErr != nil {
		r.verdict.reasons = append(r.verdict.reasons, driveErr.Error())
	}
	return r, nil
}

func run(w workload, seed int64, ops int, traced bool) (*rep, error) {
	if w.tcp {
		return runTCP(w, seed, ops, traced)
	}
	return runInproc(w, seed, ops, traced, nil)
}

// endToEnd is what a user of the store would see of this repetition.
func (r *rep) endToEnd() map[string]float64 {
	ops := float64(r.attempted)
	return map[string]float64{
		"ops_per_s":         float64(r.attempted-r.verdict.failed) / r.wall.Seconds(),
		"rtt_p50_us":        float64(quantile(r.rtts, 0.50)) / 1e3,
		"rtt_p99_us":        float64(quantile(r.rtts, 0.99)) / 1e3,
		"cpu_us_per_op":     float64(r.cpu.Microseconds()) / ops,
		"heap_bytes_per_op": float64(r.heapGrowth) / ops,
		"setup_s":           r.setup.Seconds(),
	}
}

// layerCounts are the per-layer numbers an untraced repetition yields:
// the store's own counters and the Go runtime's.
func (r *rep) layerCounts() map[string]float64 {
	c := r.counts
	applied := float64(c.applied)
	return map[string]float64{
		"store.sim_ms_per_op":      float64(c.simTotal) / float64(async.Millisecond) / applied,
		"store.ops_per_slot":       applied / float64(c.slots),
		"store.polls_per_op":       float64(c.polls) / applied,
		"store.retries_per_kop":    1000 * float64(c.retries) / applied,
		"store.dups_per_kop":       1000 * float64(c.dups) / applied,
		"store.invalid_per_kop":    1000 * float64(c.invalid) / applied,
		"store.marks":              float64(c.marks),
		"store.sim_rtt_p50_us":     float64(c.simP50),
		"store.sim_rtt_p99_us":     float64(c.simP99),
		"core.verdict_fail_shards": float64(c.verdictFails),
		"client.cas_ok_share":      float64(r.verdict.casOK) / float64(r.attempted),
		"go.mallocs_per_op":        float64(r.mallocs) / float64(r.attempted),
		"go.alloc_bytes_per_op":    float64(r.allocBytes) / float64(r.attempted),
		"go.gc_cycles":             float64(r.gcCycles),
		"go.gc_pause_ms":           float64(r.gcPause.Microseconds()) / 1e3,
		"go.gc_cpu_us_per_op":      float64(r.gcCPU.Microseconds()) / float64(r.attempted),
		"go.heap_inuse_mb_end":     r.heapInuseMB,
	}
}
