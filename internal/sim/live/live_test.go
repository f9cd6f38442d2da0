package live

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// counter counts callbacks; all fields are read via Inspect only.
type counter struct {
	id    proc.ID
	ticks int
	msgs  int
	echo  bool
}

func (c *counter) ID() proc.ID { return c.id }
func (c *counter) OnTick(ctx async.Context) {
	c.ticks++
	if c.echo {
		ctx.Broadcast("hi")
	}
}
func (c *counter) OnMessage(ctx async.Context, from proc.ID, payload any) { c.msgs++ }

func TestValidation(t *testing.T) {
	if _, err := New([]async.Proc{&counter{id: 0}, &counter{id: 0}}, Config{}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := New([]async.Proc{&counter{id: 0}}, Config{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTicksAndMessagesFlow(t *testing.T) {
	cs := []*counter{{id: 0, echo: true}, {id: 1}}
	rt := MustNew([]async.Proc{cs[0], cs[1]}, Config{
		Seed: 1, TickEvery: 200 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var ticks, msgs int
		if !rt.Inspect(1, func(p async.Proc) {
			ticks = p.(*counter).ticks
			msgs = p.(*counter).msgs
		}) {
			t.Fatal("inspect failed")
		}
		if ticks >= 5 && msgs >= 5 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("ticks/messages did not flow within the deadline")
}

func TestDelayedDelivery(t *testing.T) {
	cs := []*counter{{id: 0, echo: true}, {id: 1}}
	rt := MustNew([]async.Proc{cs[0], cs[1]}, Config{
		Seed: 2, TickEvery: 200 * time.Microsecond,
		MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got := 0
		rt.Inspect(1, func(p async.Proc) { got = p.(*counter).msgs })
		if got > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no delayed message arrived")
}

// crashAt schedules one crash through Apply, the runtime's only fault
// scheduler.
func crashAt(rt *Runtime, p proc.ID, at time.Duration) <-chan struct{} {
	return rt.Apply([]chaos.Action{{At: at, Kind: chaos.ActKill, P: p}}, nil)
}

func TestCrashStopsCallbacks(t *testing.T) {
	cs := []*counter{{id: 0, echo: true}, {id: 1}}
	rt := MustNew([]async.Proc{cs[0], cs[1]}, Config{
		Seed: 3, TickEvery: 200 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()
	<-crashAt(rt, 1, 20*time.Millisecond)
	if since := time.Since(rt.start); since < 20*time.Millisecond {
		t.Errorf("crash fired after %v, scheduled at 20ms", since)
	}
	if !rt.Crashed().Has(1) || !rt.Up().Equal(proc.NewSet(0)) {
		t.Fatalf("after the crash: crashed=%v up=%v", rt.Crashed(), rt.Up())
	}
	if rt.Inspect(1, func(async.Proc) {}) {
		t.Error("inspecting a crashed process should fail")
	}
}

// TestApplyLeavesNoGoroutines: delayed actions wait on the runtime's done
// channel, so once Apply's channel closes nothing it started is left
// running — not one watcher per delayed action until Stop.
func TestApplyLeavesNoGoroutines(t *testing.T) {
	rt := MustNew([]async.Proc{&counter{id: 0}, &counter{id: 1}}, Config{
		Seed: 9, TickEvery: time.Millisecond,
	})
	rt.Start()
	defer rt.Stop()
	before := runtime.NumGoroutine()
	var acts []chaos.Action
	for i := 0; i < 20; i++ {
		acts = append(acts, chaos.Action{At: time.Duration(i+1) * time.Millisecond, Kind: chaos.ActCorrupt, P: proc.ID(i % 2)})
	}
	<-rt.Apply(acts, rand.New(rand.NewSource(9)))
	if grew := runtime.NumGoroutine() - before; grew > 1 {
		t.Errorf("%d goroutines outlive 20 applied actions, want ≤ 1", grew)
	}
}

// TestStopCancelsApply: Stop ends a pending delayed action at once.
func TestStopCancelsApply(t *testing.T) {
	rt := MustNew([]async.Proc{&counter{id: 0}}, Config{Seed: 10})
	rt.Start()
	applied := crashAt(rt, 0, time.Hour)
	rt.Stop()
	select {
	case <-applied:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not cancel the pending action")
	}
	if rt.Crashed().Has(0) {
		t.Error("a cancelled action was applied")
	}
}

func TestStopIsIdempotentAndStartOnce(t *testing.T) {
	rt := MustNew([]async.Proc{&counter{id: 0}}, Config{Seed: 4})
	rt.Start()
	rt.Start() // second start is a no-op
	rt.Stop()
	rt.Stop() // second stop is a no-op
}

// TestLiveDetectorConformance: the Figure 4 transform satisfies ◊S on the
// goroutine backend too — every correct process eventually suspects the
// crashed one and trusts the anchor.
func TestLiveDetectorConformance(t *testing.T) {
	const n = 4
	crash := map[proc.ID]async.Time{3: 20 * async.Millisecond}
	weak := &detector.SimulatedWeak{
		N: n, CrashAt: crash,
		AccuracyAt: 30 * async.Millisecond, Lag: 3 * async.Millisecond,
		NoiseP: 0.25, SlanderP: 0, Seed: 5,
	}
	procs := make([]async.Proc, n)
	for i := 0; i < n; i++ {
		procs[i] = detector.NewProc(proc.ID(i), n, weak)
	}
	rt := MustNew(procs, Config{
		Seed: 5, TickEvery: 300 * time.Microsecond,
		MinDelay: 100 * time.Microsecond, MaxDelay: 400 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()
	crashAt(rt, 3, 20*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		good := true
		for i := 0; i < 3; i++ {
			var sus proc.Set
			if !rt.Inspect(proc.ID(i), func(p async.Proc) {
				sus = p.(*detector.Proc).Suspects()
			}) {
				good = false
				break
			}
			if !sus.Has(3) || sus.Has(0) {
				good = false
				break
			}
		}
		if good {
			return // strong completeness + anchor trusted, live
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatal("◊S properties not reached on the live runtime")
}

// TestLiveConsensusConformance: the §3 stabilizing consensus reaches
// stable agreement on real goroutines, from corrupted initial states with
// a crash.
func TestLiveConsensusConformance(t *testing.T) {
	const n = 5
	crash := map[proc.ID]async.Time{4: 25 * async.Millisecond}
	weak := &detector.SimulatedWeak{
		N: n, CrashAt: crash,
		AccuracyAt: 30 * async.Millisecond, Lag: 3 * async.Millisecond,
		NoiseP: 0.2, SlanderP: 0.1, Seed: 7,
	}
	inputs := []ctcons.Value{3, 9, 27, 81, 243}
	cs, aps := ctcons.Procs(n, inputs, ctcons.Stabilizing(), weak)
	rng := rand.New(rand.NewSource(7))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	rt := MustNew(aps, Config{
		Seed: 7, TickEvery: 300 * time.Microsecond,
		MinDelay: 100 * time.Microsecond, MaxDelay: 400 * time.Microsecond,
	})
	rt.Start()
	defer rt.Stop()
	crashAt(rt, 4, 25*time.Millisecond)

	deadline := time.Now().Add(10 * time.Second)
	var lastVals [4]ctcons.Value
	stableSince := time.Time{}
	for time.Now().Before(deadline) {
		var vals [4]ctcons.Value
		allDecided := true
		for i := 0; i < 4; i++ {
			ok := rt.Inspect(proc.ID(i), func(p async.Proc) {
				v, _, decided := p.(*ctcons.Proc).Decision()
				if !decided {
					allDecided = false
				}
				vals[i] = v
			})
			if !ok {
				allDecided = false
			}
		}
		agree := allDecided && vals[0] == vals[1] && vals[1] == vals[2] && vals[2] == vals[3]
		if agree && vals == lastVals {
			if stableSince.IsZero() {
				stableSince = time.Now()
			} else if time.Since(stableSince) > 100*time.Millisecond {
				return // stable agreement held for 100ms of wall time
			}
		} else {
			stableSince = time.Time{}
		}
		lastVals = vals
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no stable agreement on the live runtime within the deadline")
}
