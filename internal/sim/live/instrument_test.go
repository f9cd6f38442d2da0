package live

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ftss/internal/obs"
	"ftss/internal/sim/async"
)

// TestInstrumentsTrafficAndSupervision: the obs counters track the same
// facts as Health, and kill/restart land on the event stream.
func TestInstrumentsTrafficAndSupervision(t *testing.T) {
	reg := obs.NewRegistry()
	var events bytes.Buffer
	ins := NewInstruments(reg, "live", obs.NewJSONL(&events))

	cs := []*counter{{id: 0, echo: true}, {id: 1}}
	rt := MustNew([]async.Proc{cs[0], cs[1]}, Config{
		Seed: 1, TickEvery: 200 * time.Microsecond, Obs: ins,
	})
	rt.Start()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ins.Delivered.Value() < 5 {
		time.Sleep(2 * time.Millisecond)
	}
	if ins.Delivered.Value() < 5 {
		t.Fatal("no traffic recorded within the deadline")
	}

	if !rt.Kill(1) {
		t.Fatal("Kill(1) failed")
	}
	if !rt.CorruptAndRestart(1, rand.New(rand.NewSource(7))) {
		t.Fatal("restart failed")
	}
	rt.Stop()

	h := rt.Health()
	if got := ins.Sent.Value(); got != h.Sent {
		t.Errorf("sent counter %d != health %d", got, h.Sent)
	}
	if got := ins.Delivered.Value(); got != h.Delivered {
		t.Errorf("delivered counter %d != health %d", got, h.Delivered)
	}
	if got := ins.Kills.Value(); got != 1 {
		t.Errorf("kills = %d, want 1", got)
	}
	if got := ins.Restarts.Value(); got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
	out := events.String()
	for _, want := range []string{`"ev":"kill","t":`, `"ev":"restart"`, `"detail":"corrupt"`} {
		if !strings.Contains(out, want) {
			t.Errorf("event stream missing %s\nstream:\n%s", want, out)
		}
	}
}

// TestInstrumentsOverflowAndHighWater: a capped mailbox under
// a burst records overflow drops and a high-water mark ≤ cap.
func TestInstrumentsOverflowAndHighWater(t *testing.T) {
	reg := obs.NewRegistry()
	ins := NewInstruments(reg, "live", nil)

	rt := MustNew([]async.Proc{&counter{id: 0}}, Config{
		Seed: 1, TickEvery: time.Hour, MailboxCap: 4, Obs: ins,
	})
	// Drive the mailbox directly (no goroutine draining it) so the
	// overflow path is exercised deterministically.
	m := rt.newMailboxFor(0)
	for i := 0; i < 20; i++ {
		m.put(item{from: 0, payload: i})
	}
	if got := ins.OverflowDropped.Value(); got != 16 {
		t.Errorf("overflow dropped = %d, want 16", got)
	}
	if got := ins.MailboxHighWater.Value(); got != 4 {
		t.Errorf("mailbox high water = %d, want 4", got)
	}
}
