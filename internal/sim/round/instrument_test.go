package round

import (
	"bytes"
	"strings"
	"testing"

	"ftss/internal/failure"
	"ftss/internal/obs"
	"ftss/internal/proc"
)

// TestInstrumentedDisabledAllocationCeiling: an engine whose Instruments
// pointer is nil must keep the same steady-state allocation budget as an
// uninstrumented engine — the disabled path is one branch, zero allocs.
func TestInstrumentedDisabledAllocationCeiling(t *testing.T) {
	const n = 16
	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &quietProc{id: proc.ID(i), payload: i}
	}
	e := MustNewEngine(ps, nil)
	e.Instrument(nil) // explicit no-op attach
	e.Run(3)

	avg := testing.AllocsPerRun(50, func() { e.Step() })
	const ceiling = 2 // same budget TestStepAllocationCeiling pins
	if avg > ceiling {
		t.Errorf("disabled-instrumentation Step: %.1f allocs per round, ceiling %d", avg, ceiling)
	}
}

// TestInstrumentedCountersOnlyAllocationCeiling: counters without a Sink
// are atomic adds — they must not raise the per-round budget either.
func TestInstrumentedCountersOnlyAllocationCeiling(t *testing.T) {
	const n = 16
	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &quietProc{id: proc.ID(i), payload: i}
	}
	e := MustNewEngine(ps, nil)
	reg := obs.NewRegistry()
	e.Instrument(&Instruments{
		Rounds:   reg.Counter("rounds"),
		Messages: reg.Counter("messages"),
		Dropped:  reg.Counter("dropped"),
		Crashes:  reg.Counter("crashes"),
	})
	e.Run(3)

	avg := testing.AllocsPerRun(50, func() { e.Step() })
	const ceiling = 2
	if avg > ceiling {
		t.Errorf("counters-only Step: %.1f allocs per round, ceiling %d", avg, ceiling)
	}
}

// countedRun runs the hand-computed schedule of TestInstrumentCounts: n=4,
// one crash at round 3, send-omission from process 0 in rounds 1–2, and
// the given lag schedule (nil for none). It returns the counters and the
// event stream.
func countedRun(lag Lag) (*obs.Registry, string) {
	const n = 4
	adv := failure.NewScripted(0, 1).CrashAt(1, 3)
	// Process 0 drops its sends to everyone in rounds 1 and 2.
	for r := uint64(1); r <= 2; r++ {
		for to := 1; to < n; to++ {
			adv.DropSendAt(r, 0, proc.ID(to))
		}
	}

	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &quietProc{id: proc.ID(i), payload: i}
	}
	e := MustNewEngine(ps, adv)
	e.SetLag(lag)
	reg := obs.NewRegistry()
	var events bytes.Buffer
	e.Instrument(&Instruments{
		Rounds:   reg.Counter("rounds"),
		Messages: reg.Counter("messages"),
		Dropped:  reg.Counter("dropped"),
		Crashes:  reg.Counter("crashes"),
		Sink:     obs.NewJSONL(&events),
	})
	e.Run(4)
	return reg, events.String()
}

// scriptedLag holds back exactly the listed messages.
type scriptedLag map[sentMsg]bool

func (l scriptedLag) Late(r uint64, from, to proc.ID) bool {
	return l[sentMsg{r: r, from: from, to: to}]
}

// TestInstrumentCounts checks the tallies against a schedule computed by
// hand, without and then with a lag schedule.
func TestInstrumentCounts(t *testing.T) {
	reg, out := countedRun(nil)
	if got := reg.Counter("rounds").Value(); got != 4 {
		t.Errorf("rounds = %d, want 4", got)
	}
	// Rounds 1–2: 4 alive, 16 pairs, 3 dropped each → 13 delivered each.
	// Round 3: process 1 crashes, 3 alive → 9 delivered. Round 4: 9.
	if got := reg.Counter("messages").Value(); got != 13+13+9+9 {
		t.Errorf("messages = %d, want 44", got)
	}
	if got := reg.Counter("dropped").Value(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	if got := reg.Counter("crashes").Value(); got != 1 {
		t.Errorf("crashes = %d, want 1", got)
	}
	for _, want := range []string{
		`{"ev":"round_start","t":1,"alive":4}`,
		`{"ev":"msg_drop","t":1,"p":1,"detail":"send","from":0,"to":1}`,
		`{"ev":"crash","t":3,"p":1}`,
		`{"ev":"round_end","t":4,"alive":3,"delivered":9,"dropped":0}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("event stream missing %s\nstream:\n%s", want, out)
		}
	}

	// The same run with 2→3 held back in round 1 and 2→1 in round 2. A
	// held-back message counts in the round it lands: round 1 delivers 12,
	// round 2 delivers 13 − 1 + 1 = 13. The 2→1 message is due in round 3,
	// when process 1 has crashed, so it is lost and never counted.
	reg, out = countedRun(scriptedLag{{r: 1, from: 2, to: 3}: true, {r: 2, from: 2, to: 1}: true})
	if got := reg.Counter("messages").Value(); got != 12+13+9+9 {
		t.Errorf("lagged messages = %d, want 43", got)
	}
	if got := reg.Counter("dropped").Value(); got != 6 {
		t.Errorf("lagged dropped = %d, want 6 (lag is not a drop)", got)
	}
	for _, want := range []string{
		`{"ev":"round_end","t":1,"alive":4,"delivered":12,"dropped":3}`,
		`{"ev":"round_end","t":2,"alive":4,"delivered":13,"dropped":3}`,
		`{"ev":"round_end","t":3,"alive":3,"delivered":9,"dropped":0}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lagged event stream missing %s\nstream:\n%s", want, out)
		}
	}
}
