package round

import "ftss/internal/obs"

// Instruments holds the engine's telemetry hooks. All fields are
// optional: nil counters ignore updates and a nil Sink suppresses the
// event stream. An engine with no Instruments attached pays one nil
// check per Step and allocates nothing extra —
// TestInstrumentedDisabledAllocationCeiling pins this down.
type Instruments struct {
	// Rounds counts engine steps executed.
	Rounds *obs.Counter
	// Messages counts messages delivered (including self-delivery), a
	// held-back message in the round it lands.
	Messages *obs.Counter
	// Dropped counts messages suppressed by the adversary.
	Dropped *obs.Counter
	// Crashes counts crashes taking effect.
	Crashes *obs.Counter
	// Sink receives round_start/round_end, crash, and msg_drop events
	// stamped with the actual round number.
	Sink obs.Sink
}

// Instrument attaches telemetry hooks to the engine. Pass nil to
// detach. Attach before the run starts; the engine reads the pointer on
// every Step.
func (e *Engine) Instrument(ins *Instruments) { e.ins = ins }

// stepTelemetry flushes one round's tallies into the instruments and
// emits the round_end event. Split out of Step so the disabled path
// stays a single branch.
func (e *Engine) stepTelemetry(r uint64, alive, delivered, dropped int) {
	e.ins.Rounds.Inc()
	e.ins.Messages.Add(uint64(delivered))
	e.ins.Dropped.Add(uint64(dropped))
	if e.ins.Sink != nil {
		e.ins.Sink.Emit(obs.Event{
			Kind: "round_end", T: r, P: -1,
			Fields: []obs.KV{
				{K: "alive", V: int64(alive)},
				{K: "delivered", V: int64(delivered)},
				{K: "dropped", V: int64(dropped)},
			},
		})
	}
}
