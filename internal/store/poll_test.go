package store

import (
	"runtime"
	"testing"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/proc"
)

// pollRecorder is a three-replica recorder with the store's Σ attached,
// as newShard builds it, and the agreeing cells a healthy poll records.
func pollRecorder() (*chaos.Recorder, *core.IncrementalChecker, proc.Set, map[proc.ID]chaos.DecisionCell) {
	rec := chaos.NewRecorder(3)
	ic := core.NewIncrementalChecker(rec.History(), WindowAgreement, stabPolls)
	cells := make(map[proc.ID]chaos.DecisionCell, 3)
	return rec, ic, proc.NewSet(0, 1, 2), cells
}

// agree sets every cell to the same frontier and window hash.
func agree(cells map[proc.ID]chaos.DecisionCell, w uint64) {
	c := chaos.DecisionCell{OK: true, Round: w, Val: int64(w) * 7}
	cells[0], cells[1], cells[2] = c, c, c
}

// TestPollAllocationCeiling: one poll of agreeing, unchanged cells is
// one allocation, the poll's snapshot row; the boxed cells are shared
// and the window extension allocates nothing. When the agreed cell
// changes, the three processes share one new box.
func TestPollAllocationCeiling(t *testing.T) {
	rec, ic, up, cells := pollRecorder()
	agree(cells, 5)
	avg := testing.AllocsPerRun(1000, func() { rec.Observe(up, cells) })
	w := uint64(5)
	moving := testing.AllocsPerRun(1000, func() {
		w++
		agree(cells, w)
		rec.Observe(up, cells)
	})
	if err := ic.Verdict(); err != nil {
		t.Fatal(err)
	}
	const ceiling = 1
	if avg > ceiling {
		t.Errorf("Recorder.Observe + WindowAgreement: %.1f allocs per poll, ceiling %d", avg, ceiling)
	}
	if moving > ceiling+1 {
		t.Errorf("advancing cells: %.1f allocs per poll, ceiling %d", moving, ceiling+1)
	}
}

// TestPollRetainedBytes: what a poll leaves on the heap once a
// collection has run, with the frontier advancing every poll so that
// every poll boxes a new cell. The ceiling is 1.1 times the 228 B
// measured on linux/amd64 with go1.24, below the 276 B of one box per
// process (472 B with two snapshot rows per poll): the round record, one
// snapshot row of three, one boxed cell the three agreeing processes
// share, and the slack of the history's grown slices.
func TestPollRetainedBytes(t *testing.T) {
	const polls = 10_000
	rec, ic, up, cells := pollRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < polls; i++ {
		agree(cells, uint64(i))
		rec.Observe(up, cells)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err := ic.Verdict(); err != nil {
		t.Fatal(err)
	}
	perPoll := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / polls
	const ceiling = 1.1 * 228
	if perPoll > ceiling {
		t.Errorf("%.0f B retained per poll, ceiling %.0f", perPoll, ceiling)
	}
	runtime.KeepAlive(rec)
}
