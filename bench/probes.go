package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/smr"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// The floor probes run one layer alone, with the layer below it stubbed,
// at a fixed size. They say what a layer costs at best, so a budget can
// tell a layer that is slow from one that is merely used a lot.

// counted runs fn between two readings of the allocation counter and the
// clock, after a collection so that none starts inside it by chance.
func counted(fn func()) (wall time.Duration, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs
}

// probeWire pushes runs ops through the four codec calls of one op —
// request encode and decode, reply encode and decode — with no socket
// between them.
func probeWire(keys []string, runs int) (map[string]float64, error) {
	var req, rep []byte
	var err error
	wall, mallocs := counted(func() {
		for n := 0; n < runs && err == nil; n++ {
			err = codecOnce(&req, &rep, keys[n%len(keys)], uint64(n))
		}
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"wire.frame_ns":     float64(wall.Nanoseconds()) / float64(runs),
		"wire.frame_allocs": float64(mallocs) / float64(runs),
	}, nil
}

func codecOnce(req, rep *[]byte, key string, n uint64) error {
	var err error
	if *req, err = wire.AppendFrameTrace((*req)[:0], 0, 0, wire.CASRequest{ID: n, Old: n, Val: int64(n), Key: key}); err != nil {
		return err
	}
	_, _, payload, err := wire.DecodeFrameTrace(*req)
	if err != nil {
		return err
	}
	got := payload.(wire.CASRequest)
	if *rep, err = wire.AppendFrameTrace((*rep)[:0], 3, 0, wire.CASReply{ID: got.ID, OK: true, Version: got.Old + 1, Val: got.Val}); err != nil {
		return err
	}
	_, _, _, err = wire.DecodeFrameTrace(*rep)
	return err
}

// probeEcho is the kernel and scheduler floor under rtt_p50_us: frames
// of the request's and the reply's size bounced off a goroutine that
// does nothing else, by the same number of closed-loop clients.
func probeEcho(clients, ops int) (map[string]float64, error) {
	req, err := wire.AppendFrameTrace(nil, 0, 0, wire.CASRequest{Key: "k0000"})
	if err != nil {
		return nil, err
	}
	reply, err := wire.AppendFrameTrace(nil, 0, 0, wire.CASReply{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var servers sync.WaitGroup
	conns := make([]net.Conn, 0, clients)
	// hangUp ends the echo goroutines: each returns when its peer closes.
	hangUp := func() {
		for _, conn := range conns {
			conn.Close()
		}
		ln.Close()
		servers.Wait()
	}
	for c := 0; c < clients; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			hangUp()
			return nil, err
		}
		conns = append(conns, conn)
		peer, err := ln.Accept()
		if err != nil {
			hangUp()
			return nil, err
		}
		servers.Add(1)
		go func() {
			defer servers.Done()
			defer peer.Close()
			in := make([]byte, len(req))
			for {
				if _, err := io.ReadFull(peer, in); err != nil {
					return
				}
				if _, err := peer.Write(reply); err != nil {
					return
				}
			}
		}()
	}

	rtts := make([][]int64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c, conn := range conns {
		rtts[c] = make([]int64, 0, ops)
		go func() {
			defer wg.Done()
			in := make([]byte, len(reply))
			for n := 0; n < ops; n++ {
				sent := time.Now()
				if _, errs[c] = conn.Write(req); errs[c] != nil {
					return
				}
				if _, errs[c] = io.ReadFull(conn, in); errs[c] != nil {
					return
				}
				rtts[c] = append(rtts[c], int64(time.Since(sent)))
			}
		}()
	}
	wg.Wait()
	hangUp()

	var all []int64
	for c := range rtts {
		if errs[c] != nil {
			return nil, fmt.Errorf("echo probe: %w", errs[c])
		}
		all = append(all, rtts[c]...)
	}
	slices.Sort(all)
	return map[string]float64{"net.echo_rtt_p50_us": float64(quantile(all, 0.50)) / 1e3}, nil
}

// shardEngineConfig is the async.Config store.newShard gives a shard's
// engine; the probes below build their engines the same way.
func shardEngineConfig(seed int64) async.Config {
	return async.Config{
		Seed: seed, TickEvery: async.Millisecond,
		MinDelay: async.Millisecond, MaxDelay: 2 * async.Millisecond,
	}
}

// idleProc is a process that does nothing: under it, an engine's cost is
// its event queue's.
type idleProc proc.ID

func (p idleProc) ID() proc.ID                         { return proc.ID(p) }
func (idleProc) OnTick(async.Context)                  {}
func (idleProc) OnMessage(async.Context, proc.ID, any) {}

// probeAsync steps a shard-configured engine over three idle processes.
func probeAsync(events int) (map[string]float64, error) {
	eng, err := async.NewEngine([]async.Proc{idleProc(0), idleProc(1), idleProc(2)}, shardEngineConfig(1))
	if err != nil {
		return nil, err
	}
	wall, mallocs := counted(func() {
		for i := 0; i < events; i++ {
			eng.Step()
		}
	})
	return map[string]float64{
		"async.event_ns":          float64(wall.Nanoseconds()) / float64(events),
		"async.events_per_sim_ms": float64(events) / (float64(eng.Now()) / float64(async.Millisecond)),
		"async.mallocs_per_event": float64(mallocs) / float64(events),
	}, nil
}

// probeSMR decides cmds commands on a bare consensus group built the way
// store.newShard builds one — no store, no checker — submitting batch at
// a time and running 20 ms quanta until they are decided, as
// Shard.DriveAll does.
func probeSMR(tag string, batch, cmds int) (map[string]float64, error) {
	const replicas, seed = 3, 1
	weak := &detector.SimulatedWeak{N: replicas, Seed: seed}
	reps, procs := smr.NewBatchingReplicas(replicas, weak, smr.BatchPolicy{MaxBatch: 64, Window: 2, HoldFor: 2, Seed: seed + 1})
	for _, r := range reps {
		r.SetPipeline(2)
	}
	eng, err := async.NewEngine(procs, shardEngineConfig(seed+2))
	if err != nil {
		return nil, err
	}
	wall, mallocs := counted(func() {
		for sent := 0; sent < cmds && err == nil; {
			for i := 0; i < batch; i++ {
				reps[sent%replicas].Submit(smr.Value(sent))
				sent++
			}
			deadline := eng.Now() + 10_000*async.Millisecond
			for len(reps[0].Decided()) < sent {
				if eng.Now() >= deadline {
					err = fmt.Errorf("smr probe: %d of %d commands undecided after 10 sim-s", sent-len(reps[0].Decided()), sent)
					break
				}
				eng.RunUntil(eng.Now() + 20*async.Millisecond)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	n := float64(cmds)
	return map[string]float64{
		"smr.cmd_us_" + tag:          float64(wall.Microseconds()) / n,
		"smr.msgs_per_cmd_" + tag:    float64(eng.MessagesSent()) / n,
		"smr.mallocs_per_cmd_" + tag: float64(mallocs) / n,
	}, nil
}

// probePoll feeds a recorder and its incremental Definition 2.4 checker
// three agreeing cells per poll, as Shard.pollLocked does. The growth is
// the cost of a poll from index hi on over that of a poll from index lo
// on: what a long history costs. Each is the median over twenty chunks
// of polls, so that a collection landing in one chunk does not decide it.
func probePoll(lo, hi int) (map[string]float64, error) {
	rec := chaos.NewRecorder(3)
	ic := core.NewIncrementalChecker(rec.History(), store.WindowAgreement, 8)
	up := proc.NewSet(0, 1, 2)
	cells := make(map[proc.ID]chaos.DecisionCell, 3)
	const chunks = 20
	chunk := lo / 10
	total := hi + chunks*chunk
	var atLo, atHi []float64
	wall, mallocs := counted(func() {
		mark := time.Now()
		for i := 0; i < total; i++ {
			cell := chaos.DecisionCell{OK: true, Round: uint64(i / 4), Val: int64(i / 4)}
			cells[0], cells[1], cells[2] = cell, cell, cell
			rec.Observe(up, cells)
			if (i+1)%chunk != 0 {
				continue
			}
			now := time.Now()
			switch {
			case i >= hi:
				atHi = append(atHi, float64(now.Sub(mark)))
			case i >= lo && len(atLo) < chunks:
				atLo = append(atLo, float64(now.Sub(mark)))
			}
			mark = now
		}
	})
	if err := ic.Verdict(); err != nil {
		return nil, fmt.Errorf("poll probe fed an agreeing trace, verdict: %w", err)
	}
	return map[string]float64{
		"core.poll_ns":        float64(wall.Nanoseconds()) / float64(total),
		"core.poll_allocs":    float64(mallocs) / float64(total),
		"core.poll_ns_growth": median(atHi) / median(atLo),
	}, nil
}

// probeAll runs every floor probe once.
func probeAll(keys []string, sz sizes) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func() (map[string]float64, error){
		func() (map[string]float64, error) { return probeWire(keys, sz.codecRuns) },
		func() (map[string]float64, error) { return probeEcho(clientCount(), sz.echoOps) },
		func() (map[string]float64, error) { return probeAsync(sz.events) },
		func() (map[string]float64, error) { return probePoll(sz.pollsLo, sz.pollsHi) },
		func() (map[string]float64, error) { return probeSMR("b1", 1, sz.smrCmds) },
		func() (map[string]float64, error) { return probeSMR("b64", 64, 64*sz.smrCmds) },
	} {
		ms, err := probe()
		if err != nil {
			return nil, err
		}
		for name, v := range ms {
			out[name] = v
		}
	}
	return out, nil
}
