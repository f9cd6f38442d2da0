package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// seededOps builds a deterministic op stream: keys k000..k(keys-1),
// values and expected versions driven by a seeded rng with a running
// per-key version estimate, so a fixed share of CASes succeed.
func seededOps(seed int64, n, keys int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ver := make(map[string]uint64, keys)
	ops := make([]Op, n)
	for i := range ops {
		k := fmt.Sprintf("k%03d", rng.Intn(keys))
		old := ver[k]
		if rng.Intn(4) == 0 {
			old += uint64(rng.Intn(3)) + 1 // deliberate mismatch
		} else {
			ver[k]++ // in-order CAS chain: will succeed
		}
		ops[i] = Op{Key: k, Old: old, Val: int64(1000 + i)}
	}
	return ops
}

// TestStoreCASSemantics: four concurrent ops commit in whatever order
// the log decides, and every result is what a single register yields
// when it folds the committed stream (reps[0]'s, the one applyLocked
// folds) in that order.
func TestStoreCASSemantics(t *testing.T) {
	st := New(Config{Shards: 1, Seed: 3, MaxBatch: 8})
	sh := st.Shard(0)
	ops := []Op{
		{Key: "x", Old: 0, Val: 10},
		{Key: "x", Old: 1, Val: 20},
		{Key: "x", Old: 1, Val: 30}, // at most one of the two Old: 1 ops succeeds
		{Key: "y", Old: 0, Val: 40},
	}
	for i, op := range ops {
		if id := sh.Submit(op); id != int64(i) {
			t.Fatalf("op %d got id %d", i, id)
		}
	}
	if err := st.Drive(1); err != nil {
		t.Fatal(err)
	}
	checkFold(t, sh, ops)
	if err := st.Report(&bytes.Buffer{}); err != nil {
		t.Fatalf("clean run verdicts: %v", err)
	}
}

// TestResultsAcrossOpPages: a shard holding more than two pages of
// per-op records returns every result, and every register, as the
// fold of its committed stream does, the ops submitted across several
// drives so that pages fill between them.
func TestResultsAcrossOpPages(t *testing.T) {
	st := New(Config{Shards: 1, Seed: 5})
	sh := st.Shard(0)
	ops := seededOps(5, 2*opPage+300, 48)
	for i, op := range ops {
		if id := sh.Submit(op); id != int64(i) {
			t.Fatalf("op %d got id %d", i, id)
		}
		if i%700 == 699 {
			if err := st.Drive(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Drive(1); err != nil {
		t.Fatal(err)
	}
	if n := len(sh.ops.pages); n != 3 {
		t.Fatalf("%d ops in %d pages, want 3", len(ops), n)
	}
	checkFold(t, sh, ops)
}

// TestOpRecHoldsNoPointer: the per-op record is scalar fields only, so
// the collector never scans the pages that hold one per op served.
func TestOpRecHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(opRec{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int64, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("opRec.%s is a %s, which may hold a pointer", f.Name, f.Type)
		}
	}
}

// checkFold holds every result of sh, and every register, to what a
// single register per key yields when it folds the committed stream
// (reps[0]'s, the one applyLocked folds) in order. ops are the shard's
// submissions, by ID.
func checkFold(t *testing.T, sh *Shard, ops []Op) {
	t.Helper()
	model := map[string]kvEntry{}
	want := map[int64]Result{}
	for _, c := range sh.reps[0].Decided() {
		seq := int64(c)
		if seq < 0 || seq >= int64(len(ops)) {
			t.Fatalf("committed stream carries unknown command %d", seq)
		}
		if _, dup := want[seq]; dup {
			continue
		}
		op, e := ops[seq], model[ops[seq].Key]
		if op.Old == e.ver {
			e = kvEntry{ver: e.ver + 1, val: op.Val}
			model[op.Key] = e
			want[seq] = Result{OK: true, Version: e.ver, Val: e.val}
		} else {
			want[seq] = Result{OK: false, Version: e.ver, Val: e.val}
		}
	}
	if len(want) != len(ops) {
		t.Fatalf("committed stream holds %d of %d ops", len(want), len(ops))
	}
	for id := range ops {
		got, ok := sh.Result(int64(id))
		if !ok || got != want[int64(id)] {
			t.Fatalf("op %d: result %+v,%v want %+v", id, got, ok, want[int64(id)])
		}
	}
	for key, e := range model {
		if ver, val := sh.Get(key); ver != e.ver || val != e.val {
			t.Fatalf("%s = v%d %d, want v%d %d", key, ver, val, e.ver, e.val)
		}
	}
	if ver, val := sh.Get("absent"); ver != 0 || val != 0 {
		t.Fatalf("absent key = v%d %d, want v0 0", ver, val)
	}
}

// TestRouterDeterministic: the hash router is a pure function — two
// stores with the same shard count agree on every key's home shard, the
// assignment doesn't depend on the seed, and the keys spread across
// shards rather than clumping.
func TestRouterDeterministic(t *testing.T) {
	a := New(Config{Shards: 16, Seed: 1})
	b := New(Config{Shards: 16, Seed: 99})
	used := make(map[int]int)
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("user/%04d", i)
		sa, sb := a.ShardFor(key), b.ShardFor(key)
		if sa != sb {
			t.Fatalf("key %q routed to %d and %d", key, sa, sb)
		}
		used[sa]++
	}
	if len(used) != 16 {
		t.Fatalf("512 keys hit only %d/16 shards", len(used))
	}
	for sh, n := range used {
		if n > 512/4 {
			t.Fatalf("shard %d got %d/512 keys — router clumping", sh, n)
		}
	}
}

// TestStoreWorkersByteIdentical: the satellite determinism claim — the
// same seed and key set produce byte-identical merged metrics and
// reports whether the shards are driven by 1 worker or 8.
func TestStoreWorkersByteIdentical(t *testing.T) {
	run := func(workers int) ([]byte, []byte) {
		st := New(Config{Shards: 8, Seed: 5, MaxBatch: 8})
		for _, op := range seededOps(11, 256, 64) {
			st.Submit(op)
		}
		if err := st.Drive(workers); err != nil {
			t.Fatal(err)
		}
		var rep bytes.Buffer
		if err := st.Report(&rep); err != nil {
			t.Fatal(err)
		}
		return st.MetricsSnapshot(), rep.Bytes()
	}
	snap1, rep1 := run(1)
	snap8, rep8 := run(8)
	if !bytes.Equal(snap1, snap8) {
		t.Fatalf("metrics differ between -workers 1 and 8:\n%s\nvs\n%s", snap1, snap8)
	}
	if !bytes.Equal(rep1, rep8) {
		t.Fatalf("reports differ between -workers 1 and 8:\n%s\nvs\n%s", rep1, rep8)
	}
	if !strings.Contains(string(rep1), "verdicts 8/8 pass") {
		t.Fatalf("expected all verdicts to pass:\n%s", rep1)
	}
}

// TestStoreVerdictsUnderCorruption: with periodic corruption each shard
// records systemic marks, retries forfeit ops, and still drains with
// every per-shard Definition 2.4 verdict passing (each corruption
// stabilizes within the budget).
func TestStoreVerdictsUnderCorruption(t *testing.T) {
	st := New(Config{
		Shards: 4, Seed: 7, MaxBatch: 8,
		CorruptEvery: 60 * async.Millisecond,
	})
	for _, op := range seededOps(13, 512, 32) {
		st.Submit(op)
	}
	if err := st.Drive(2); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := st.Report(&rep); err != nil {
		t.Fatalf("verdicts under corruption: %v\n%s", err, rep.String())
	}
	marks := uint64(0)
	for i := 0; i < st.NumShards(); i++ {
		marks += st.Shard(i).Marks()
	}
	if marks == 0 {
		t.Fatal("corruption was configured but no systemic marks recorded")
	}
	for i := 0; i < st.NumShards(); i++ {
		if p := st.Shard(i).Pending(); p != 0 {
			t.Fatalf("shard %d still has %d pending ops", i, p)
		}
	}
}

// TestStoreRerunIdentical: a full store run is a pure function of its
// config and submit sequence.
func TestStoreRerunIdentical(t *testing.T) {
	run := func() []byte {
		st := New(Config{Shards: 4, Seed: 9, MaxBatch: 16, CorruptEvery: 600 * async.Millisecond})
		for _, op := range seededOps(17, 300, 40) {
			st.Submit(op)
		}
		if err := st.Drive(4); err != nil {
			t.Fatal(err)
		}
		return st.MetricsSnapshot()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("reruns differ:\n%s\nvs\n%s", a, b)
	}
}

// TestWindowAgreementViolations: the Σ itself — divergent cells, a
// missing frontier, and a regressing frontier are violations; lockstep
// advance is not.
func TestWindowAgreementViolations(t *testing.T) {
	cell := func(w uint64, h int64) chaos.DecisionCell {
		return chaos.DecisionCell{OK: true, Round: w, Val: h}
	}
	obsPoll := func(rec *chaos.Recorder, cells ...chaos.DecisionCell) {
		up := proc.NewSet()
		m := map[proc.ID]chaos.DecisionCell{}
		for i, c := range cells {
			up.Add(proc.ID(i))
			m[proc.ID(i)] = c
		}
		rec.Observe(up, m)
	}

	rec := chaos.NewRecorder(3)
	ic := core.NewIncrementalChecker(rec.History(), WindowAgreement, 1)
	obsPoll(rec, cell(5, 42), cell(5, 42), cell(5, 42))
	obsPoll(rec, cell(6, 43), cell(6, 43), cell(6, 43))
	if err := ic.Verdict(); err != nil {
		t.Fatalf("lockstep advance violated Σ: %v", err)
	}
	obsPoll(rec, cell(7, 44), cell(7, 99), cell(7, 44))
	obsPoll(rec, cell(7, 44), cell(7, 99), cell(7, 44))
	if err := ic.Verdict(); err == nil {
		t.Fatal("divergent window hashes passed")
	}

	rec = chaos.NewRecorder(2)
	ic = core.NewIncrementalChecker(rec.History(), WindowAgreement, 1)
	obsPoll(rec, cell(5, 1), cell(5, 1))
	obsPoll(rec, cell(5, 1), cell(5, 1)) // past the stabilization prefix
	obsPoll(rec, cell(4, 1), cell(4, 1)) // frontier rolls back with no mark
	obsPoll(rec, cell(4, 1), cell(4, 1))
	if err := ic.Verdict(); err == nil {
		t.Fatal("regressing frontier passed")
	}

	rec = chaos.NewRecorder(2)
	ic = core.NewIncrementalChecker(rec.History(), WindowAgreement, 1)
	obsPoll(rec, cell(5, 1), chaos.DecisionCell{})
	obsPoll(rec, cell(5, 1), chaos.DecisionCell{})
	if err := ic.Verdict(); err == nil {
		t.Fatal("missing frontier passed")
	}
}

// TestStoreTraceWorkersByteIdentical: the tentpole determinism claim
// for tracing — the collected span set is byte-identical whether the
// shards are driven by 1 worker or 8, every applied op has its three
// phase spans, corruption events close into containment spans, and no
// span IDs collide.
func TestStoreTraceWorkersByteIdentical(t *testing.T) {
	run := func(workers int) (*Store, []byte) {
		st := New(Config{
			Shards: 8, Seed: 5, MaxBatch: 8, Trace: true,
			CorruptEvery: 60 * async.Millisecond,
		})
		// Rounds of 32 ops, each driven to completion, so the run lasts
		// past several 60 ms strikes and the polls that close them.
		for i, op := range seededOps(11, 256, 64) {
			st.Submit(op)
			if i%32 == 31 {
				if err := st.Drive(workers); err != nil {
					t.Fatal(err)
				}
			}
		}
		var tr bytes.Buffer
		if err := st.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return st, tr.Bytes()
	}
	st1, tr1 := run(1)
	_, tr8 := run(8)
	if !bytes.Equal(tr1, tr8) {
		t.Fatalf("traces differ between -workers 1 and 8 (%d vs %d bytes)", len(tr1), len(tr8))
	}
	if st1.TraceCollisions() != 0 {
		t.Fatalf("span ID collisions: %d", st1.TraceCollisions())
	}

	spans := st1.TraceSpans()
	phases := map[string]int{}
	for _, sp := range spans {
		phases[sp.Phase]++
		if sp.End < sp.Start {
			t.Fatalf("span %v %s runs backwards: [%d,%d]", sp.ID, sp.Phase, sp.Start, sp.End)
		}
	}
	if phases["store.queue"] != 256 || phases["store.slot"] != 256 || phases["store.apply"] != 256 {
		t.Fatalf("phase spans = %v, want 256 of each op phase", phases)
	}
	if phases["store.containment"] == 0 {
		t.Fatal("corruption was configured but no containment spans recorded")
	}
}

// TestStoreTraceDisabled: with Trace off the span API is inert and the
// metric snapshot carries no containment instruments (byte-stability
// with pre-tracing runs).
func TestStoreTraceDisabled(t *testing.T) {
	st := New(Config{Shards: 2, Seed: 3, CorruptEvery: 60 * async.Millisecond})
	for _, op := range seededOps(19, 64, 16) {
		st.Submit(op)
	}
	if err := st.Drive(2); err != nil {
		t.Fatal(err)
	}
	if st.TraceSpans() != nil {
		t.Fatal("TraceSpans non-nil with tracing disabled")
	}
	var tr bytes.Buffer
	if err := st.WriteTrace(&tr); err != nil || tr.Len() != 0 {
		t.Fatalf("WriteTrace with tracing disabled wrote %d bytes, err %v", tr.Len(), err)
	}
	if st.TraceCollisions() != 0 {
		t.Fatal("collisions counted with tracing disabled")
	}
	if snap := string(st.MetricsSnapshot()); strings.Contains(snap, "containment") ||
		strings.Contains(snap, "reconverged") {
		t.Fatalf("containment instruments leaked into an untraced snapshot:\n%s", snap)
	}
}

// TestStoreTraceParentLink: an op submitted with a client trace context
// carries it as the parent of all three of its phase spans.
func TestStoreTraceParentLink(t *testing.T) {
	st := New(Config{Shards: 1, Seed: 2, Trace: true})
	parent := obs.DeriveSpanID(99, 0, 0)
	st.Submit(Op{Key: "x", Old: 0, Val: 1, Trace: parent})
	st.Submit(Op{Key: "y", Old: 0, Val: 2})
	if err := st.Drive(1); err != nil {
		t.Fatal(err)
	}
	linked := 0
	for _, sp := range st.TraceSpans() {
		if sp.Parent == parent {
			linked++
		}
	}
	if linked != 3 {
		t.Fatalf("spans linked to the client context = %d, want 3", linked)
	}
}
