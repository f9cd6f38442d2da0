package chaos

import (
	"bytes"
	"strings"
	"testing"

	"ftss/internal/core"
	"ftss/internal/obs"
	"ftss/internal/proc"
)

func fullUp(n int) proc.Set { return proc.Universe(n) }

func agreeCells(n int, val int64, round uint64) map[proc.ID]DecisionCell {
	cells := make(map[proc.ID]DecisionCell, n)
	for p := 0; p < n; p++ {
		cells[proc.ID(p)] = DecisionCell{OK: true, Round: round, Val: val}
	}
	return cells
}

// TestRecorderPollsAccounting: Polls() tracks Observe calls one-to-one
// and matches the history length; Mark does not consume a poll.
func TestRecorderPollsAccounting(t *testing.T) {
	const n = 3
	r := NewRecorder(n)
	if r.Polls() != 0 {
		t.Fatalf("fresh recorder Polls = %d", r.Polls())
	}
	for i := 1; i <= 5; i++ {
		r.Observe(fullUp(n), agreeCells(n, 7, 1))
		if got := r.Polls(); got != uint64(i) {
			t.Fatalf("after %d observations Polls = %d", i, got)
		}
	}
	r.Mark()
	if got := r.Polls(); got != 5 {
		t.Fatalf("Mark consumed a poll: Polls = %d", got)
	}
	if got := r.History().Len(); got != 5 {
		t.Fatalf("history length %d, want 5 (one round per poll)", got)
	}
}

// TestRecorderMarkPlacement: a Mark between polls records the systemic
// failure at the current prefix length, and StableSegments opens a new
// segment at the first poll after the mark.
func TestRecorderMarkPlacement(t *testing.T) {
	const n = 3
	r := NewRecorder(n)
	for i := 0; i < 3; i++ {
		r.Observe(fullUp(n), agreeCells(n, 1, 1))
	}
	r.Mark()
	for i := 0; i < 2; i++ {
		r.Observe(fullUp(n), agreeCells(n, 2, 2))
	}

	marks := r.History().SystemicFailureMarks()
	if len(marks) != 1 || marks[0] != 3 {
		t.Fatalf("SystemicFailureMarks = %v, want [3]", marks)
	}
	// The coterie forming at the first poll adds one initial boundary;
	// the mark must open the final segment at the first post-mark poll.
	segs := r.History().StableSegments()
	if len(segs) != 3 {
		t.Fatalf("StableSegments = %v, want 3 segments (initial, pre-mark, post-mark)", segs)
	}
	last, prev := segs[len(segs)-1], segs[len(segs)-2]
	if prev.End != 3 {
		t.Errorf("pre-mark segment ends at %d, want 3", prev.End)
	}
	if last.Start != 4 || last.End != 5 {
		t.Errorf("post-mark segment = [%d,%d], want [4,5]", last.Start, last.End)
	}
}

// TestRecorderObserveShrinkRecover: a process that goes down (leaves the
// up set) and later returns is not required to agree while absent; the
// window check passes as long as every present process agrees, and fails
// if the revived process returns with a divergent register.
func TestRecorderObserveShrinkRecover(t *testing.T) {
	const n = 4
	r := NewRecorder(n)

	r.Observe(fullUp(n), agreeCells(n, 9, 1))

	// Process 2 goes down for two polls; the survivors keep agreeing.
	down2 := fullUp(n)
	down2.Remove(2)
	survivors := agreeCells(n, 9, 1)
	delete(survivors, 2)
	r.Observe(down2, survivors)
	r.Observe(down2, survivors)

	// Recovery: process 2 returns holding the same register.
	r.Observe(fullUp(n), agreeCells(n, 9, 1))

	h := r.History()
	if h.Len() != 4 {
		t.Fatalf("history length %d, want 4", h.Len())
	}
	if h.AliveAt(2).Has(2) {
		t.Fatal("down process still recorded alive")
	}
	if err := core.Check(StableAgreement, h, 1, h.Len(), proc.NewSet()); err != nil {
		t.Fatalf("shrink-then-recover with consistent registers: %v", err)
	}

	// Divergent recovery must be caught.
	bad := NewRecorder(n)
	bad.Observe(fullUp(n), agreeCells(n, 9, 1))
	bad.Observe(down2, survivors)
	diverged := agreeCells(n, 9, 1)
	diverged[2] = DecisionCell{OK: true, Round: 1, Val: 8}
	bad.Observe(fullUp(n), diverged)
	if err := core.Check(StableAgreement, bad.History(), 1, bad.History().Len(), proc.NewSet()); err == nil {
		t.Fatal("divergent recovered register passed the window check")
	}
}

// TestRecorderRecordsOneRow: a poll is recorded without an end row, so
// each poll's end state is its start state, down processes have neither,
// and the window reads only the start row.
func TestRecorderRecordsOneRow(t *testing.T) {
	const n = 3
	r := NewRecorder(n)
	r.Observe(fullUp(n), agreeCells(n, 4, 1))
	r.Observe(proc.NewSet(0, 2), agreeCells(n, 4, 1))
	r.Observe(fullUp(n), agreeCells(n, 5, 2))
	h := r.History()
	for t0 := 1; t0 <= h.Len(); t0++ {
		for p := proc.ID(0); p < n; p++ {
			start, ok1 := h.SnapshotAt(t0, p)
			end, ok2 := h.SnapshotAtEnd(t0, p)
			if start != end || ok1 != ok2 || ok1 != h.AliveAt(t0).Has(p) {
				t.Errorf("poll %d %v: start %+v,%v end %+v,%v", t0, p, start, ok1, end, ok2)
			}
		}
	}
}

// TestRecorderInstruments: counters track polls/marks and the event
// stream carries poll-stamped records.
func TestRecorderInstruments(t *testing.T) {
	const n = 3
	r := NewRecorder(n)
	reg := obs.NewRegistry()
	var events bytes.Buffer
	r.Instrument(&RecorderInstruments{
		Polls: reg.Counter("polls"),
		Marks: reg.Counter("marks"),
		Sink:  obs.NewJSONL(&events),
	})
	r.Observe(fullUp(n), agreeCells(n, 1, 1))
	r.Mark()
	r.Observe(fullUp(n), agreeCells(n, 2, 2))

	if got := reg.Counter("polls").Value(); got != 2 {
		t.Errorf("polls counter = %d, want 2", got)
	}
	if got := reg.Counter("marks").Value(); got != 1 {
		t.Errorf("marks counter = %d, want 1", got)
	}
	out := events.String()
	for _, want := range []string{
		`{"ev":"poll","t":1,"up":3}`,
		`{"ev":"systemic","t":1}`,
		`{"ev":"poll","t":2,"up":3}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("event stream missing %s\nstream:\n%s", want, out)
		}
	}
}
