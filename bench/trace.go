package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// The traced run. Spans are recorded here, around the calls into each
// layer's public functions; nothing inside the program is instrumented.
// A unit of replay is one op (tcp-*) or one round (inproc-batch): a
// bench.op span whose phases share its ID, stamped in wall nanoseconds
// since the replay began.

// layerTrace is what the traced parts of a run yield before the
// untraced repetitions are in.
type layerTrace struct {
	metrics       map[string]float64
	spans         []obs.Span
	tracedOpsPerS float64 // the program-traced repetition's ops_per_s
}

// traceLayers makes the three traced parts: the floor probes, the
// replay, and one repetition with the program's own tracing on.
func traceLayers(w workload, sz sizes, seed int64, res *workloadResult) (*layerTrace, error) {
	t := &layerTrace{}
	var err error
	if t.metrics, err = probeAll(keyNames(w.keys), sz); err != nil {
		return nil, err
	}

	col := obs.NewCollector()
	rp, err := replay(w, seed, col)
	if err != nil {
		return nil, err
	}
	res.note(rp)
	t.spans = col.Spans()
	for name, v := range replayMetrics(w, t.spans) {
		t.metrics[name] = v
	}

	rp, err = run(w, seed, w.ops, true)
	if err != nil {
		return nil, err
	}
	res.note(rp)
	t.tracedOpsPerS = rp.endToEnd()["ops_per_s"]
	phases := map[string][]int64{}
	for _, sp := range rp.spans {
		phases[sp.Phase] = append(phases[sp.Phase], int64(sp.Duration()))
	}
	for _, ph := range []string{"queue", "slot", "apply"} {
		d := phases["store."+ph]
		slices.Sort(d)
		t.metrics["store."+ph+"_sim_p50_us"] = float64(quantile(d, 0.50))
	}
	return t, nil
}

// tracer stamps spans against one clock and keeps them in memory.
type tracer struct {
	col  *obs.Collector
	base time.Time
}

func (t *tracer) now() uint64 {
	if t == nil {
		return 0
	}
	return uint64(time.Since(t.base))
}

// phases records unit id's root span and its phases: phase i ran from
// stamps[i] to stamps[i+1]. A nil tracer records nothing.
func (t *tracer) phases(id obs.SpanID, p int, start, end uint64, names []string, stamps []uint64) {
	if t == nil {
		return
	}
	t.col.Record(obs.Span{ID: id, Phase: "bench.op", P: p, Start: start, End: end})
	for i, name := range names {
		t.col.Record(obs.Span{ID: id, Phase: name, P: p, Start: stamps[i], End: stamps[i+1]})
	}
}

var (
	opPhases = []string{
		"wire.encode_request", "wire.decode_request", "store.route", "store.submit",
		"store.drive", "store.result", "wire.encode_reply", "wire.decode_reply",
	}
	roundPhases = []string{"store.submit", "store.drive", "store.result"}
)

// replay runs the workload's op stream on one goroutine with no sockets,
// making for each op the calls store.Server's connection loop makes,
// each one a phase of the op's span. Replies are checked like any
// repetition's.
func replay(w workload, seed int64, col *obs.Collector) (*rep, error) {
	tr := &tracer{col: col, base: time.Now()}
	if !w.tcp {
		return runInproc(w, seed, w.ops, false, tr)
	}
	clients := clientCount()
	per := w.ops / clients
	keys := keyNames(w.keys)
	streams := make([][]int32, clients)
	vers := make([][]uint64, clients)
	recs := make([][]opRecord, clients)
	for c := range streams {
		streams[c] = keyStream(seed, c, per, w.keys)
		vers[c] = make([]uint64, w.keys)
		recs[c] = make([]opRecord, 0, per)
	}
	st := store.New(w.cfg)
	r := &rep{attempted: per * clients}
	var reqBuf, repBuf []byte
	var ts [9]uint64
	for n := 0; n < per; n++ {
		for c := 0; c < clients; c++ {
			k := streams[c][n]
			start := tr.now()
			req := wire.CASRequest{ID: uint64(c)<<32 | uint64(n), Old: vers[c][k], Val: opValue(c, n), Key: keys[k]}
			var err error

			ts[0] = tr.now()
			if reqBuf, err = wire.AppendFrameTrace(reqBuf[:0], 0, 0, req); err != nil {
				return nil, err
			}
			ts[1] = tr.now()
			_, _, payload, err := wire.DecodeFrameTrace(reqBuf)
			if err != nil {
				return nil, err
			}
			got := payload.(wire.CASRequest)
			ts[2] = tr.now()
			shard := st.ShardFor(got.Key)
			sh := st.Shard(shard)
			ts[3] = tr.now()
			id := sh.Submit(store.Op{Key: got.Key, Old: got.Old, Val: got.Val})
			ts[4] = tr.now()
			if err := sh.DriveAll(); err != nil {
				return nil, fmt.Errorf("replay: shard %d: %w", shard, err)
			}
			ts[5] = tr.now()
			res, applied := sh.Result(id)
			ts[6] = tr.now()
			if repBuf, err = wire.AppendFrameTrace(repBuf[:0], proc.ID(shard), 0, wire.CASReply{ID: got.ID, OK: res.OK, Version: res.Version, Val: res.Val}); err != nil {
				return nil, err
			}
			ts[7] = tr.now()
			from, _, payload, err := wire.DecodeFrameTrace(repBuf)
			if err != nil {
				return nil, err
			}
			reply := payload.(wire.CASReply)
			ts[8] = tr.now()

			recs[c] = append(recs[c], opRecord{
				key: k, from: int32(from), echoed: applied && reply.ID == req.ID, ok: reply.OK,
				old: req.Old, val: req.Val, version: reply.Version, rval: reply.Val,
			})
			vers[c][k] = reply.Version
			tr.phases(obs.DeriveSpanID(seed, uint64(c), uint64(n)), shard, start, tr.now(), opPhases, ts[:])
		}
	}
	r.judge(st, keys, recs)
	return r, nil
}

// replayMetrics reads the per-layer numbers off the replay's spans. The
// per-call costs are means per op; a layer's self time is its span less
// the phases inside it.
func replayMetrics(w workload, spans []obs.Span) map[string]float64 {
	opsPerUnit := 1.0
	if !w.tcp {
		opsPerUnit = roundOps
	}
	byPhase := map[string][]int64{}
	for _, sp := range spans {
		byPhase[sp.Phase] = append(byPhase[sp.Phase], int64(sp.Duration()))
	}
	sum := func(phase string) (total float64) {
		for _, d := range byPhase[phase] {
			total += float64(d)
		}
		return total
	}
	units := float64(len(byPhase["bench.op"]))
	inside := 0.0
	for phase := range byPhase {
		if phase != "bench.op" {
			inside += sum(phase)
		}
	}
	drive := byPhase["store.drive"]
	slices.Sort(drive)
	return map[string]float64{
		"store.submit_ns":    sum("store.submit") / units / opsPerUnit,
		"store.result_ns":    sum("store.result") / units / opsPerUnit,
		"store.drive_p50_us": float64(quantile(drive, 0.50)) / 1e3,
		"store.drive_p99_us": float64(quantile(drive, 0.99)) / 1e3,
		"bench.op_self_ns":   (sum("bench.op") - inside) / units / opsPerUnit,
		"bench.op_mean_us":   sum("bench.op") / units / 1e3,
	}
}

// derive adds the numbers that need both runs: what tracing inside the
// program costs, and the part of the untraced round trip that no
// measured layer accounts for — the serve edge, goroutine wake-ups and,
// on a contended shard, the wait for its monitor. The residual is taken
// twice. server.overhead_us is in medians. Medians do not add: the
// replay, alone on its goroutine, pays for collection in every op, while
// a live median op runs between collections and the tail pays, so the
// residual in medians can be negative. server.overhead_mean_us is the
// same identity in means, which do add; a closed loop's mean round trip
// is its ops in flight over its throughput.
func (t *layerTrace) derive(w workload, rttP50us, untracedOpsPerS float64) {
	m := t.metrics
	m["obs.trace_overhead_share"] = 1 - t.tracedOpsPerS/untracedOpsPerS
	calls := (m["store.submit_ns"] + m["store.result_ns"]) / 1e3
	if w.tcp {
		floor := m["net.echo_rtt_p50_us"]
		m["server.overhead_us"] = rttP50us - floor - m["wire.frame_ns"]/1e3 - m["store.drive_p50_us"] - calls
		m["server.overhead_mean_us"] = float64(clientCount())*1e6/untracedOpsPerS - floor - m["bench.op_mean_us"]
	} else {
		m["server.overhead_us"] = rttP50us - m["store.drive_p50_us"] - roundOps*calls
		m["server.overhead_mean_us"] = roundOps*1e6/untracedOpsPerS - m["bench.op_mean_us"]
	}
}

// printBudget attributes the untraced round trip to the layers, and one
// replayed drive to the layers under the store. ms holds the run's
// reported per-layer metrics.
func printBudget(out io.Writer, w workload, rttP50us float64, ms map[string]metricValue) {
	v := func(name string) float64 { return ms[name].Value }
	row := func(us float64, what string) { fmt.Fprintf(out, "  %10.1f us  %s\n", us, what) }
	perUnit := 1.0
	if !w.tcp {
		perUnit = roundOps
	}
	fmt.Fprintf(out, "budget %s, medians: rtt_p50_us %.1f (untraced) =\n", w.name, rttP50us)
	if w.tcp {
		row(v("net.echo_rtt_p50_us"), "net.echo_rtt_p50_us    kernel + scheduler floor")
		row(v("wire.frame_ns")/1e3, "wire.frame_ns          four codec calls")
	}
	row(perUnit*v("store.submit_ns")/1e3, fmt.Sprintf("store.submit_ns        ×%g", perUnit))
	row(v("store.drive_p50_us"), "store.drive_p50_us     replayed on one goroutine")
	row(perUnit*v("store.result_ns")/1e3, fmt.Sprintf("store.result_ns        ×%g", perUnit))
	row(v("server.overhead_us"), "server.overhead_us     residual: serve edge, wake-ups, monitor wait")
	mean := v("server.overhead_mean_us") + v("bench.op_mean_us")
	if w.tcp {
		mean += v("net.echo_rtt_p50_us")
	}
	fmt.Fprintf(out, "budget %s, means: round trip %.1f (ops in flight / ops_per_s) =\n", w.name, mean)
	if w.tcp {
		row(v("net.echo_rtt_p50_us"), "net.echo_rtt_p50_us")
	}
	row(v("bench.op_mean_us"), "bench.op_mean_us       the replayed calls, collection included")
	row(v("server.overhead_mean_us"), "server.overhead_mean_us residual")
	if !w.tcp {
		return
	}
	// One op driven alone costs the bare group one command at batch 1
	// (engine events included), its share of polls, and the store's rest.
	events := v("store.sim_ms_per_op")*v("async.events_per_sim_ms") + v("smr.msgs_per_cmd_b1")
	engine := events * v("async.event_ns") / 1e3
	polls := v("store.polls_per_op") * v("core.poll_ns") / 1e3
	fmt.Fprintf(out, "budget %s: store.drive_p50_us %.1f (replayed) ~\n", w.name, v("store.drive_p50_us"))
	row(engine, fmt.Sprintf("async  %.0f events × async.event_ns", events))
	row(v("smr.cmd_us_b1")-engine, "smr    smr.cmd_us_b1 less those events")
	row(polls, fmt.Sprintf("core   %.2f polls × core.poll_ns", v("store.polls_per_op")))
	row(v("store.drive_p50_us")-v("smr.cmd_us_b1")-polls, "store  residual: apply, window hashing, retry scan")
}

func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
