package main

import (
	"strings"
	"testing"
)

// history returns a correct two-client history over two keys and the
// final registers that go with it. Both clients race on k0000 (three
// swaps apply, two are refused and read the winner's state); client 1
// also writes k0001, which lives on shard 1.
func history() (observed, map[string][2]int64) {
	final := map[string][2]int64{"k0000": {3, 12}, "k0001": {1, 22}}
	o := observed{
		keys:      keyNames(2),
		attempted: 6,
		ops: [][]opRecord{
			{
				{key: 0, from: 0, echoed: true, ok: true, old: 0, val: 10, version: 1, rval: 10},
				{key: 0, from: 0, echoed: true, ok: false, old: 1, val: 11, version: 2, rval: 21},
				{key: 0, from: 0, echoed: true, ok: true, old: 2, val: 12, version: 3, rval: 12},
			},
			{
				{key: 0, from: 0, echoed: true, ok: false, old: 0, val: 20, version: 1, rval: 10},
				{key: 0, from: 0, echoed: true, ok: true, old: 1, val: 21, version: 2, rval: 21},
				{key: 1, from: 1, echoed: true, ok: true, old: 0, val: 22, version: 1, rval: 22},
			},
		},
		shardFor: func(key string) int {
			if key == "k0001" {
				return 1
			}
			return 0
		},
		get: func(key string) (uint64, int64) {
			return uint64(final[key][0]), final[key][1]
		},
		applied: 6, casOK: 4, casMismatch: 2,
	}
	return o, final
}

func TestCheckAcceptsCorrectHistory(t *testing.T) {
	o, _ := history()
	if v := check(o); v.failed != 0 || v.casOK != 4 {
		t.Fatalf("correct history: failed=%d casOK=%d %v", v.failed, v.casOK, v.reasons)
	}
}

// TestCheckCountsEachViolation feeds the checker histories that are
// wrong in exactly one way each: the check must be able to fail.
func TestCheckCountsEachViolation(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *observed, final map[string][2]int64)
		want    string // substring of some reason
	}{
		{"duplicate OK version", func(o *observed, _ map[string][2]int64) {
			// Client 1's swap also claims to have made version 1.
			o.ops[1][1].old, o.ops[1][1].version = 0, 1
		}, "both applied as v1"},
		{"version gap", func(o *observed, _ map[string][2]int64) {
			o.ops[0][2].old, o.ops[0][2].version = 3, 4
		}, "a version was skipped"},
		{"wrong final value", func(_ *observed, final map[string][2]int64) {
			final["k0000"] = [2]int64{3, 99}
		}, "ends at v3 val 99"},
		{"wrong final version", func(_ *observed, final map[string][2]int64) {
			final["k0001"] = [2]int64{2, 22}
		}, "k0001: ends at v2"},
		{"wrong shard in the reply frame", func(o *observed, _ map[string][2]int64) {
			o.ops[0][0].from = 1
		}, "answered by shard 1, routed to 0"},
		{"lost op", func(o *observed, _ map[string][2]int64) {
			o.ops[1] = o.ops[1][:2]
			o.attempted, o.applied, o.casOK = 6, 6, 3
		}, "got no reply"},
		{"reply for another request", func(o *observed, _ map[string][2]int64) {
			o.ops[1][0].echoed = false
		}, "another request's ID"},
		{"swap applied with the wrong value", func(o *observed, _ map[string][2]int64) {
			o.ops[1][2].rval = 23
		}, "applied as v1 val 23, sent 22"},
		{"refusal that shows no newer version", func(o *observed, _ map[string][2]int64) {
			o.ops[0][1].version = 1
		}, "refused at v1"},
		{"store applied count", func(o *observed, _ map[string][2]int64) {
			o.applied, o.casMismatch = 7, 3
		}, "store applied 7 ops, clients sent 6"},
		{"store swap count", func(o *observed, _ map[string][2]int64) {
			o.casOK, o.casMismatch = 3, 3
		}, "store counts 3 applied swaps, clients saw 4"},
		{"store counters do not add up", func(o *observed, _ map[string][2]int64) {
			o.casMismatch = 1
		}, "4 ok + 1 mismatch != 6 applied"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, final := history()
			tc.corrupt(&o, final)
			v := check(o)
			if v.failed == 0 {
				t.Fatalf("violation not counted")
			}
			if !strings.Contains(strings.Join(v.reasons, "\n"), tc.want) {
				t.Fatalf("no reason mentions %q:\n%s", tc.want, strings.Join(v.reasons, "\n"))
			}
		})
	}
}
