package live

import (
	"time"

	"ftss/internal/obs"
	"ftss/internal/proc"
)

// Instruments holds the live runtime's counters and event sink, attached
// via Config.Obs. They are the runtime's only books: Health reads them,
// and a runtime built without them counts into a private registry.
// A nil Sink emits nothing.
//
// The live runtime is the repo's non-deterministic backend, so unlike
// the simulator hooks its events are stamped with elapsed microseconds
// since Start — wall-time readings never leak into //ftss:det packages.
type Instruments struct {
	// Sent and Delivered count messages offered to and dispatched from
	// mailboxes (counter-only: too hot for per-message events).
	Sent, Delivered *obs.Counter
	// ChaosDropped and ChaosDuplicated count Nemesis verdicts applied.
	ChaosDropped, ChaosDuplicated *obs.Counter
	// OverflowDropped counts full-mailbox evictions.
	OverflowDropped *obs.Counter
	// Kills, Restarts, and Panics count supervision events.
	Kills, Restarts, Panics *obs.Counter
	// MailboxHighWater tracks the deepest any mailbox has been.
	MailboxHighWater *obs.Gauge
	// Sink receives nemesis_drop/nemesis_dup, overflow_drop, kill,
	// restart, and panic events.
	Sink obs.Sink
}

// NewInstruments registers the full live instrument set under
// "<prefix>." names in reg and wires sink (which may be nil). It is the
// one-call setup the CLIs use.
func NewInstruments(reg *obs.Registry, prefix string, sink obs.Sink) *Instruments {
	return &Instruments{
		Sent:             reg.Counter(prefix + ".sent"),
		Delivered:        reg.Counter(prefix + ".delivered"),
		ChaosDropped:     reg.Counter(prefix + ".chaos_dropped"),
		ChaosDuplicated:  reg.Counter(prefix + ".chaos_duplicated"),
		OverflowDropped:  reg.Counter(prefix + ".overflow_dropped"),
		Kills:            reg.Counter(prefix + ".kills"),
		Restarts:         reg.Counter(prefix + ".restarts"),
		Panics:           reg.Counter(prefix + ".panics"),
		MailboxHighWater: reg.Gauge(prefix + ".mailbox_high_water"),
		Sink:             sink,
	}
}

// elapsedMicros is the runtime's event timestamp: microseconds since
// Start, 0 before it.
func (rt *Runtime) elapsedMicros() uint64 {
	if rt.start.IsZero() {
		return 0
	}
	return uint64(time.Since(rt.start) / time.Microsecond)
}

// emit sends a supervision event if a sink is attached.
func (rt *Runtime) emit(kind string, p proc.ID, detail string) {
	sink := rt.cfg.Obs.Sink
	if sink == nil {
		return
	}
	sink.Emit(obs.Event{Kind: kind, T: rt.elapsedMicros(), P: int(p), Detail: detail})
}
