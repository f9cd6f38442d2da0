package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/proc"
)

// PollRecord is one node's decision-register sample at one poll index of
// the cluster-wide grid.
type PollRecord struct {
	Node  proc.ID
	Index uint64
	Cell  chaos.DecisionCell
}

// eventLine is the JSONL shape obs.JSONL writes: fixed keys plus the
// event's flattened integer fields.
type eventLine struct {
	Ev    string `json:"ev"`
	T     uint64 `json:"t"`
	P     int    `json:"p"`
	OK    int64  `json:"ok"`
	Round uint64 `json:"round"`
	Val   int64  `json:"val"`
}

// ParsePolls extracts the node_poll records from one node's JSONL event
// stream, ignoring every other event kind. Malformed lines are an error:
// a truncated stream means the node died mid-write, and the launcher
// should know rather than silently shorten the trace — except a
// truncated final line, which is exactly what a SIGKILL mid-write
// leaves and is tolerated.
func ParsePolls(r io.Reader) ([]PollRecord, error) {
	var out []PollRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pending error
	for sc.Scan() {
		if pending != nil {
			return nil, pending
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e eventLine
		if err := json.Unmarshal(line, &e); err != nil {
			// Defer the error one line: only a non-final bad line fails.
			pending = fmt.Errorf("cluster: bad event line %q: %w", line, err)
			continue
		}
		if e.Ev != "node_poll" {
			continue
		}
		out = append(out, PollRecord{
			Node:  proc.ID(e.P),
			Index: e.T,
			Cell:  chaos.DecisionCell{OK: e.OK == 1, Round: e.Round, Val: e.Val},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Reassemble folds per-node poll records into one global Definition 2.4
// history: poll index k becomes observed round k+1, a node with a record
// at k is up, one without is down (killed, partitioned off the grid, or
// not yet started), and each chaos episode inserts a systemic-failure
// mark before the first poll at or after its start — the same bridge
// ftss-soak applies in-process, reconstructed here from the event
// streams of n separate OS processes.
func Reassemble(plan *chaos.Plan, pollEvery time.Duration, records []PollRecord) *chaos.Recorder {
	n := plan.Config.N
	byIndex := make(map[uint64]map[proc.ID]chaos.DecisionCell)
	var max uint64
	for _, r := range records {
		if r.Node < 0 || int(r.Node) >= n {
			continue
		}
		m, ok := byIndex[r.Index]
		if !ok {
			m = make(map[proc.ID]chaos.DecisionCell, n)
			byIndex[r.Index] = m
		}
		m[r.Node] = r.Cell
		if r.Index > max {
			max = r.Index
		}
	}

	// Episode start → first poll index at or after it.
	markAt := make(map[uint64]int)
	for _, ep := range plan.Episodes {
		idx := uint64((ep.Start + pollEvery - 1) / pollEvery)
		markAt[idx]++
	}

	rec := chaos.NewRecorder(n)
	for k := uint64(0); k <= max; k++ {
		for i := 0; i < markAt[k]; i++ {
			rec.Mark()
		}
		cells := byIndex[k]
		if len(cells) == 0 {
			// No node reported this poll (a global stall or a gap in the
			// grid): nothing to observe, but the marks above still count.
			continue
		}
		up := proc.NewSet()
		for p := range cells {
			up.Add(p)
		}
		rec.Observe(up, cells)
	}
	return rec
}

// MeasuredStabilization finds the smallest stabilization budget (in
// polls) under which the reassembled history ftss-solves stable
// agreement, exactly as the in-process soak searches. It returns -1 when
// no budget up to the poll count suffices.
func MeasuredStabilization(rec *chaos.Recorder) int {
	b := core.MinimalStabilization(rec.History(), chaos.StableAgreement)
	if uint64(b) > rec.Polls() {
		return -1
	}
	return b
}
