package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/cli"
	"ftss/internal/ctcons"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/sim/live"
	"ftss/internal/wire/transport"
)

// NodeConfig parameterizes one networked node: which member of the
// n-process Π⁺ consensus it hosts and how to reach the rest.
type NodeConfig struct {
	// ID is the hosted process, in 0..N-1.
	ID proc.ID
	// N is the cluster size.
	N int
	// Seed is the cluster-wide seed: chaos schedule, inputs, and backoff
	// jitter all derive from it, identically on every node.
	Seed int64
	// Listen is the local transport address.
	Listen string
	// Peers maps every other process ID to its dial address.
	Peers map[proc.ID]string
	// Episodes, EpisodeLen, QuietLen parameterize the shared chaos plan
	// (zero Episodes = no staged chaos).
	Episodes   int
	EpisodeLen time.Duration
	QuietLen   time.Duration
	// Tick is the process tick interval (default 1ms).
	Tick time.Duration
	// MailboxCap bounds the hosted mailbox; overflow drops oldest.
	MailboxCap int
	// PollEvery is the decision-register sampling interval (default 10ms).
	// Poll k happens at epoch + k·PollEvery, a cluster-wide grid.
	PollEvery time.Duration
	// Since is how far into the shared schedule this incarnation starts:
	// zero for a fresh boot, the elapsed offset for a restart. The node's
	// epoch is start − Since, so chaos windows and poll indexes stay
	// aligned with peers that never died.
	Since time.Duration
	// Corrupt randomizes the process state before it runs — the restart
	// from garbage of §2.1.
	Corrupt bool
	// ChaosEvents receives the deterministic schedule stream
	// (WriteChaosSchedule); nil = none.
	ChaosEvents obs.Sink
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 10 * time.Millisecond
	}
	return c
}

// Plan derives the chaos schedule this node (and every peer) runs under.
func (c NodeConfig) Plan() *chaos.Plan {
	return chaos.NewPlan(c.Seed, chaos.PlanConfig{
		N: c.N, Episodes: c.Episodes,
		EpisodeLen: c.EpisodeLen, QuietLen: c.QuietLen,
	})
}

// RunNode boots one node and blocks until the schedule's horizon passes
// or stop fires (graceful shutdown). Telemetry goes through the caller's
// opened session: node_poll records (stamped with the poll index, not
// wall time) and runtime events on tel.Sink(), the registry behind
// /metrics and the exit snapshot the caller's tel.Close writes, and a
// /healthz that answers 503 until the hosted process decides. Progress
// and the final health/transport report go to w.
func RunNode(cfg NodeConfig, tel *cli.Telemetry, stop <-chan struct{}, w io.Writer) error {
	cfg = cfg.withDefaults()
	if cfg.N < 3 {
		return fmt.Errorf("node: need n ≥ 3, got %d", cfg.N)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return fmt.Errorf("node: id %v outside 0..%d", cfg.ID, cfg.N-1)
	}
	plan := cfg.Plan()
	if cfg.ChaosEvents != nil {
		WriteChaosSchedule(cfg.ChaosEvents, plan, cfg.ID)
	}

	sink := obs.Tee(tel.Sink()) // Null when the session has no stream
	reg := obs.NewRegistry()
	ins := live.NewInstruments(reg, "node", sink)

	hp := ctcons.NewConstructiveProc(cfg.ID, cfg.N, ctcons.SeededInputs(cfg.Seed, cfg.N)[cfg.ID],
		ctcons.Stabilizing(), 5*async.Millisecond, async.Millisecond)
	if cfg.Corrupt {
		hp.Corrupt(rand.New(rand.NewSource(cfg.Seed*7919 ^ int64(cfg.Since))))
	}

	epoch := time.Now().Add(-cfg.Since)
	var tr *transport.Transport
	rt := live.MustNew([]async.Proc{hp}, live.Config{
		Seed:       cfg.Seed + int64(cfg.ID)*101,
		TickEvery:  cfg.Tick,
		N:          cfg.N,
		Router:     func(from, to proc.ID, payload any) { tr.Send(to, payload) },
		Nemesis:    &TickFaults{Plan: plan, Since: cfg.Since},
		MailboxCap: cfg.MailboxCap,
		Obs:        ins,
	})
	tr, err := transport.New(transport.Config{
		Self:   cfg.ID,
		Listen: cfg.Listen,
		Peers:  cfg.Peers,
		Seed:   cfg.Seed,
		Faults: &PlanFaults{Plan: plan, Self: cfg.ID, Epoch: epoch},
		OnMessage: func(from proc.ID, payload any) {
			rt.Inject(from, cfg.ID, payload)
		},
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	rt.Start()
	defer rt.Stop()
	rt.Apply(LocalActions(plan, cfg.ID, cfg.Since), rand.New(rand.NewSource(cfg.Seed*13+int64(cfg.ID))))

	// Every render mirrors the transport's current counters beside the
	// runtime's, so /metrics shows the wire layer mid-run too.
	snapshot := func() []byte {
		r := obs.NewRegistry()
		r.Merge("", reg)
		mirrorStats(r, tr.Stats())
		return r.Snapshot()
	}
	if err := tel.Serve(fmt.Sprintf("node %d: ", int(cfg.ID)), snapshot,
		func() (bool, []byte) { return nodeHealth(rt, cfg.ID) }); err != nil {
		return err
	}

	fmt.Fprintf(w, "node %d: seed=%d n=%d listen=%s since=%v horizon=%v\n",
		int(cfg.ID), cfg.Seed, cfg.N, tr.Addr(), cfg.Since, plan.Horizon())

	horizon := plan.Horizon()
	k := uint64(0)
	if cfg.Since > 0 {
		k = uint64((cfg.Since + cfg.PollEvery - 1) / cfg.PollEvery)
	}
	stopped := false
poll:
	for {
		at := epoch.Add(time.Duration(k) * cfg.PollEvery)
		if at.Sub(epoch) >= horizon {
			break
		}
		if wait := time.Until(at); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
				stopped = true
				break poll
			}
		} else {
			select {
			case <-stop:
				stopped = true
				break poll
			default:
			}
		}
		var cell chaos.DecisionCell
		if rt.Inspect(cfg.ID, func(p async.Proc) {
			v, r, ok := p.(*ctcons.HeartbeatProc).Decision()
			cell = chaos.DecisionCell{OK: ok, Round: r, Val: int64(v)}
		}) {
			sink.Emit(obs.Event{
				Kind: "node_poll", T: k, P: int(cfg.ID),
				Fields: []obs.KV{
					{K: "ok", V: boolInt(cell.OK)},
					{K: "round", V: int64(cell.Round)},
					{K: "val", V: cell.Val},
				},
			})
		}
		k++
	}

	// Final report: health, transport, decision — on both the natural
	// horizon and a graceful shutdown.
	stats := tr.Stats()
	sink.Emit(obs.Event{Kind: "node_done", T: k, P: int(cfg.ID),
		Fields: []obs.KV{{K: "stopped", V: boolInt(stopped)}}})
	fmt.Fprintf(w, "node %d: %v\n", int(cfg.ID), rt.Health())
	fmt.Fprintf(w, "node %d: %v\n", int(cfg.ID), stats)
	if v, r, ok := decision(rt, cfg.ID); ok {
		fmt.Fprintf(w, "node %d: decided %d@%d\n", int(cfg.ID), v, r)
	} else {
		fmt.Fprintf(w, "node %d: no decision\n", int(cfg.ID))
	}
	return nil
}

// nodeHealth renders the /healthz body: the live runtime report plus
// the decision register. A node reads healthy only once its hosted
// process has decided — before that (or mid-corruption) the plane
// answers 503, which is exactly when an operator wants the detail.
func nodeHealth(rt *live.Runtime, id proc.ID) (bool, []byte) {
	v, r, ok := decision(rt, id)
	b := []byte(rt.Health().String())
	b = append(b, '\n')
	if ok {
		b = append(b, fmt.Sprintf("decided %d@%d\n", v, r)...)
	} else {
		b = append(b, "no decision\n"...)
	}
	return ok, b
}

func decision(rt *live.Runtime, id proc.ID) (ctcons.Value, uint64, bool) {
	var v ctcons.Value
	var r uint64
	var ok bool
	rt.Inspect(id, func(p async.Proc) { v, r, ok = p.(*ctcons.HeartbeatProc).Decision() })
	return v, r, ok
}

// mirrorStats adds the transport counters to the registry so a metrics
// render covers the wire layer alongside the runtime.
func mirrorStats(reg *obs.Registry, s transport.Stats) {
	reg.Counter("wire.frames_sent").Add(s.FramesSent)
	reg.Counter("wire.frames_recv").Add(s.FramesRecv)
	reg.Counter("wire.dials").Add(s.Dials)
	reg.Counter("wire.dial_failures").Add(s.DialFailures)
	reg.Counter("wire.conns_accepted").Add(s.ConnsAccepted)
	reg.Counter("wire.drops_queue_full").Add(s.DropsQueueFull)
	reg.Counter("wire.drops_severed").Add(s.DropsSevered)
	reg.Counter("wire.drops_frame_fate").Add(s.DropsFrameFate)
	reg.Counter("wire.drops_disconnected").Add(s.DropsDisconnected)
	reg.Counter("wire.decode_errors").Add(s.DecodeErrors)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
