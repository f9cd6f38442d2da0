package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ftss/internal/sim/async"
)

// TestSimulationFingerprint pins the seeded simulation itself: a fixed
// single-goroutine Submit/DriveAll sequence must produce the same
// Report, MetricsSnapshot and per-shard engine message counts, bit for
// bit. Any change to an event's time, order or payload anywhere under
// the store (sim/async, smr, ctcons, detector) moves the hash; a change
// that only makes the same events cheaper does not. The report's verdict
// lines are part of the fingerprint whether they pass or fail, so the
// Report error is deliberately not asserted here.
func TestSimulationFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		golden string
	}{
		// Re-recorded when DriveAll began stopping at the tick its last op
		// applies: every later submit starts from an earlier clock, so it
		// meets each strike at a different point in its slot.
		{"corrupt-60ms", Config{Shards: 2, Seed: 1, CorruptEvery: 60 * async.Millisecond},
			"d30555dbcefa0f95da9df631f51bddeae0da3948b2923ed816a56474f8b3f3a9"},
		// Re-recorded for the same stop rule: with no strikes, the earlier
		// start of every later op moves its batches, slots and the polls
		// that observe them.
		{"fault-free", Config{Shards: 2, Seed: 1},
			"e14b84b8ca99689c8f720907340d42a125eed357993dea9b63960398ae621e96"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := New(tc.cfg)
			ops := seededOps(7, 520, 48)
			// Lone ops driven one at a time (the tcp-* shape), then small
			// groups, then bursts that fill batches (the inproc-batch shape).
			burst := func(i int) int {
				switch {
				case i < 120:
					return 1
				case i < 240:
					return 1 + i%5
				}
				return 40 + i%60
			}
			for i := 0; i < len(ops); {
				for n := burst(i); n > 0 && i < len(ops); n, i = n-1, i+1 {
					st.Submit(ops[i])
				}
				for s := 0; s < st.NumShards(); s++ {
					if err := st.Shard(s).DriveAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			var buf bytes.Buffer
			_ = st.Report(&buf) // verdict lines are hashed, pass or fail
			buf.Write(st.MetricsSnapshot())
			for s := 0; s < st.NumShards(); s++ {
				eng := st.Shard(s).eng
				fmt.Fprintf(&buf, "shard %d sent=%d delivered=%d now=%d\n",
					s, eng.MessagesSent(), eng.MessagesDelivered(), eng.Now())
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.golden {
				t.Fatalf("simulation fingerprint moved:\n got %s\nwant %s\n%s", got, tc.golden, buf.Bytes())
			}
		})
	}
}
