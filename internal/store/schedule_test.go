package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ftss/internal/sim/async"
)

// TestFaultFreeVerdictsHold: with nothing wrong, the store's own
// Definition 2.4 verdict must hold however the shard is driven. Several
// ops in flight per DriveAll is the shape that let gossip adoption jump
// a replica's slot cursor past a missing slot, a hash divergence with no
// mark to excuse it.
func TestFaultFreeVerdictsHold(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		st := New(Config{Shards: 1, Seed: seed})
		sh := st.Shard(0)
		ops := seededOps(seed, 400, 16)
		for i := 0; i < len(ops); i += 4 {
			for _, op := range ops[i : i+4] {
				sh.Submit(op)
			}
			if err := sh.DriveAll(); err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
		}
		if err := sh.Verdict(); err != nil {
			t.Errorf("seed=%d: fault-free verdict failed: %v", seed, err)
		}
	}
}

// TestRandomScheduleVerdictsHold: under periodic corruption, a random
// drive schedule (several ops in flight, shards drained in random
// subsets) must leave every shard's verdict passing, as the
// drain-everything schedule of TestStoreVerdictsUnderCorruption does.
func TestRandomScheduleVerdictsHold(t *testing.T) {
	for sched := int64(1); sched <= 6; sched++ {
		rng := rand.New(rand.NewSource(sched))
		st := New(Config{Shards: 8, Seed: 11, CorruptEvery: 60 * async.Millisecond})
		ops := seededOps(sched, 600, 64)
		for i := 0; i < len(ops); {
			n := 1
			if rng.Intn(10) < 4 {
				n = 2 + rng.Intn(3)
			}
			for ; n > 0 && i < len(ops); n, i = n-1, i+1 {
				st.Submit(ops[i])
			}
			for s := 0; s < st.NumShards(); s++ {
				if rng.Intn(2) == 0 {
					if err := st.Shard(s).DriveAll(); err != nil {
						t.Fatalf("schedule %d: shard %d: %v", sched, s, err)
					}
				}
			}
		}
		if err := st.Drive(1); err != nil {
			t.Fatalf("schedule %d: %v", sched, err)
		}
		for s, err := range st.Verdicts() {
			if err != nil {
				t.Errorf("schedule %d: shard %d verdict failed: %v", sched, s, err)
			}
		}
	}
}

// TestDriveAllStopsAtLastApply: DriveAll simulates only the time its ops
// need. After every drive the shard's clock must sit exactly on the tick
// where its last op applied, every op must apply within one engine tick
// of its commit, fault-free and under corruption, for lone ops, small
// groups and batch-filling bursts alike, and stopping there must leave
// every verdict passing.
func TestDriveAllStopsAtLastApply(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt async.Time
	}{{"fault-free", 0}, {"corrupt-60ms", 60 * async.Millisecond}} {
		for seed := int64(1); seed <= 3; seed++ {
			st := New(Config{Shards: 1, Seed: seed, CorruptEvery: tc.corrupt, Trace: true})
			sh := st.Shard(0)
			ops := seededOps(seed, 420, 32)
			for i, drives := 0, 0; i < len(ops); drives++ {
				n := 1 // 40 lone ops, then groups of 2–8, then bursts of 40+
				switch {
				case drives >= 80:
					n = 40 + drives%25
				case drives >= 40:
					n = 2 + drives%7
				}
				for ; n > 0 && i < len(ops); n, i = n-1, i+1 {
					sh.Submit(ops[i])
				}
				if err := sh.DriveAll(); err != nil {
					t.Fatalf("%s seed=%d drive %d: %v", tc.name, seed, drives, err)
				}
				if now, last := sh.Now(), sh.lastProgress; now != last {
					t.Fatalf("%s seed=%d drive %d: stopped %d after last apply (now %d, last apply %d)",
						tc.name, seed, drives, now-last, now, last)
				}
			}
			for _, sp := range st.TraceSpans() {
				if sp.Phase == "store.apply" && sp.End-sp.Start > uint64(async.Millisecond) {
					t.Fatalf("%s seed=%d: an op applied %dµs after its commit, more than one engine tick",
						tc.name, seed, sp.End-sp.Start)
				}
			}
			if err := sh.Verdict(); err != nil {
				t.Errorf("%s seed=%d: verdict failed: %v", tc.name, seed, err)
			}
		}
	}
}

// FuzzStoreSchedule: the drive-schedule fuzzer. Byte 0 picks the fault
// model (bit 0: corruption every 60 ms) and the op stream; each later
// pair of bytes is one step (at most fuzzSteps of them, drawing on 160
// ops): a submit group (1–8 ops, or a burst of 40+ from 0xE0 up) and a
// drive (bit 7: Store.Drive, else DriveAll on the shards set in the low
// four bits), and a final Store.Drive drains. Every shard must stop on its
// last apply, every verdict must pass, and the run must render the same
// Report and MetricsSnapshot whether Store.Drive fans over 1 worker or 4.
func FuzzStoreSchedule(f *testing.F) {
	// The TestFaultFreeVerdictsHold shape: 4 ops, then drive every shard.
	faultFree := []byte{0}
	for i := 0; i < fuzzSteps; i++ {
		faultFree = append(faultFree, 3, 0x0f)
	}
	f.Add(faultFree)
	// The TestRandomScheduleVerdictsHold shape under corruption: mostly
	// lone ops, 40 % groups of 2–4, random shard subsets.
	for sched := int64(1); sched <= 3; sched++ {
		rng := rand.New(rand.NewSource(sched))
		random := []byte{byte(sched<<1 | 1)}
		for i := 0; i < fuzzSteps; i++ {
			g := byte(0)
			if rng.Intn(10) < 4 {
				g = byte(1 + rng.Intn(3))
			}
			random = append(random, g, byte(rng.Intn(16)))
		}
		f.Add(random)
	}
	// Batch-filling bursts drained by Store.Drive.
	f.Add([]byte{1, 0xe0, 0x80, 0xf3, 0x80, 0x07, 0x05, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep1, snap1, err := playSchedule(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep4, snap4, err := playSchedule(data, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep1, rep4) || !bytes.Equal(snap1, snap4) {
			t.Fatalf("schedule %x: workers 1 and 4 differ:\n%s%s\nvs\n%s%s", data, rep1, snap1, rep4, snap4)
		}
	})
}

// fuzzSteps bounds a FuzzStoreSchedule input so one run stays in the tens
// of milliseconds and the fuzzer can afford to minimize what it finds.
const fuzzSteps = 24

// playSchedule plays FuzzStoreSchedule's input on a fresh 4-shard store,
// with Store.Drive steps fanned over workers, and returns the Report and
// MetricsSnapshot, or the first failure: a drive error, a shard stopped
// off its last apply, or a failing verdict.
func playSchedule(data []byte, workers int) (report, snapshot []byte, err error) {
	if len(data) == 0 {
		data = []byte{0}
	}
	cfg := Config{Shards: 4, Seed: 1}
	if data[0]&1 == 1 {
		cfg.CorruptEvery = 60 * async.Millisecond
	}
	st := New(cfg)
	ops := seededOps(int64(data[0]>>1), 160, 48)
	next := 0
	for step := 1; step+1 < len(data) && step/2 < fuzzSteps; step += 2 {
		n := 1 + int(data[step]&7)
		if data[step] >= 0xe0 {
			n = 40 + int(data[step]&0x1f)
		}
		for ; n > 0 && next < len(ops); n, next = n-1, next+1 {
			st.Submit(ops[next])
		}
		if d := data[step+1]; d&0x80 != 0 {
			if err := st.Drive(workers); err != nil {
				return nil, nil, fmt.Errorf("schedule %x step %d: %v", data, step/2, err)
			}
		} else {
			for s := 0; s < st.NumShards(); s++ {
				if d>>s&1 == 0 {
					continue
				}
				if err := st.Shard(s).DriveAll(); err != nil {
					return nil, nil, fmt.Errorf("schedule %x step %d: shard %d: %v", data, step/2, s, err)
				}
			}
		}
		for s := 0; s < st.NumShards(); s++ {
			if sh := st.Shard(s); sh.Now() != sh.lastProgress {
				return nil, nil, fmt.Errorf("schedule %x step %d: shard %d stopped %d after its last apply",
					data, step/2, s, sh.Now()-sh.lastProgress)
			}
		}
	}
	if err := st.Drive(workers); err != nil {
		return nil, nil, fmt.Errorf("schedule %x: drain: %v", data, err)
	}
	var rep bytes.Buffer
	if err := st.Report(&rep); err != nil {
		return nil, nil, fmt.Errorf("schedule %x: %v\n%s", data, err, rep.Bytes())
	}
	return rep.Bytes(), st.MetricsSnapshot(), nil
}

// sweepSchedule is seeded schedule number sched in FuzzStoreSchedule's
// input format: the op stream and fault model from byte 0, then
// fuzzSteps random steps, each a submit group (1–8 ops, one step in ten
// a burst of 40+) and a random drive.
func sweepSchedule(sched int64, corrupt bool) []byte {
	rng := rand.New(rand.NewSource(sched))
	data := []byte{byte(sched%128) << 1}
	if corrupt {
		data[0] |= 1
	}
	for i := 0; i < fuzzSteps; i++ {
		g := byte(rng.Intn(8))
		if rng.Intn(10) == 0 {
			g = 0xe0 | byte(rng.Intn(32))
		}
		data = append(data, g, byte(rng.Intn(256)))
	}
	return data
}

// TestScheduleSweep is a committed slice of the seeded schedule sweep:
// the first sweepSchedules schedules, fault-free and with a strike every
// 60 ms, must all pass (playSchedule's checks). Raising the bound to
// 1 000 gives the full sweep, ~25 s per fault model on 2 cores.
func TestScheduleSweep(t *testing.T) {
	const sweepSchedules = 40
	for _, corrupt := range []bool{false, true} {
		for sched := int64(1); sched <= sweepSchedules; sched++ {
			if _, _, err := playSchedule(sweepSchedule(sched, corrupt), 1); err != nil {
				t.Errorf("corrupt=%v schedule %d: %v", corrupt, sched, err)
			}
		}
	}
}
