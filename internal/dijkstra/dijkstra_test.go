package dijkstra

import (
	"math/rand"
	"testing"

	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// runRing executes a ring from the given initial counters and returns the
// history plus the machines.
func runRing(t *testing.T, init []uint64, k uint64, rounds int) ([]*Proc, *history.History) {
	t.Helper()
	cs, ps := Ring(len(init), k)
	for i, v := range init {
		cs[i].CorruptTo(v)
	}
	h := history.New(len(init), proc.NewSet())
	e := round.MustNewEngine(ps, nil)
	e.Observe(h)
	e.Run(rounds)
	return cs, h
}

func vals(cs []*Proc) []uint64 {
	out := make([]uint64, len(cs))
	for i, c := range cs {
		out[i] = c.Val()
	}
	return out
}

func TestPrivileged(t *testing.T) {
	// Legitimate state: all equal → only p0 privileged.
	if got := Privileged([]uint64{2, 2, 2}, 4); !got.Equal(proc.NewSet(0)) {
		t.Errorf("all-equal: %v", got)
	}
	// One step later: p0 incremented → only p1 privileged.
	if got := Privileged([]uint64{3, 2, 2}, 4); !got.Equal(proc.NewSet(1)) {
		t.Errorf("after-bottom-move: %v", got)
	}
	// Fully scattered: several privileges.
	if got := Privileged([]uint64{0, 1, 2}, 4); got.Len() < 2 {
		t.Errorf("scattered: %v", got)
	}
	if Privileged(nil, 4).Len() != 0 {
		t.Error("empty ring")
	}
}

// TestExhaustiveStabilization verifies Dijkstra's theorem exhaustively:
// every one of the K^n initial states of a ring with K ≥ n+1 reaches a
// legitimate state (exactly one privilege) and stays legitimate.
func TestExhaustiveStabilization(t *testing.T) {
	for _, cfg := range []struct {
		n int
		k uint64
	}{
		{2, 3}, {3, 4}, {4, 5},
	} {
		total := 1
		for i := 0; i < cfg.n; i++ {
			total *= int(cfg.k)
		}
		horizon := 4 * cfg.n * int(cfg.k)
		for code := 0; code < total; code++ {
			init := make([]uint64, cfg.n)
			c := code
			for i := range init {
				init[i] = uint64(c % int(cfg.k))
				c /= int(cfg.k)
			}
			cs, _ := runRing(t, init, cfg.k, horizon)
			if got := Privileged(vals(cs), cfg.k); got.Len() != 1 {
				t.Fatalf("n=%d K=%d init=%v: %d privileges after %d rounds",
					cfg.n, cfg.k, init, got.Len(), horizon)
			}
		}
	}
}

// TestLegitimacyIsClosed: once legitimate, the ring stays legitimate (the
// closure half of self-stabilization).
func TestLegitimacyIsClosed(t *testing.T) {
	cs, h := runRing(t, []uint64{0, 0, 0, 0}, 5, 60)
	_ = cs
	if err := core.Check(MutualExclusion{K: 5}, h, 1, 60, proc.NewSet()); err != nil {
		t.Fatalf("legitimate start must stay legitimate: %v", err)
	}
}

// TestSSsolvesDefinition22: the paper's Definition 2.2 on Dijkstra's own
// protocol — Σ holds on the r-suffix for corrupted starts.
func TestSSsolvesDefinition22(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n, k := 4, uint64(5)
		rng := rand.New(rand.NewSource(seed))
		init := make([]uint64, n)
		for i := range init {
			init[i] = uint64(rng.Int63()) % k
		}
		cs, h := runRing(t, init, k, 80)
		_ = cs
		stab := 3 * n * int(k) // generous bound; Dijkstra's is O(n·K)
		if err := core.CheckSS(h, MutualExclusion{K: k}, stab); err != nil {
			t.Fatalf("seed=%d init=%v: %v", seed, init, err)
		}
	}
}

// TestTokenCirculates: in the legitimate regime every machine is
// privileged infinitely often (fairness), observable as each machine
// holding the single privilege within every window of n·K rounds.
func TestTokenCirculates(t *testing.T) {
	n, k := 4, uint64(5)
	cs, ps := Ring(n, k)
	e := round.MustNewEngine(ps, nil)
	e.Run(30) // stabilize

	seen := proc.NewSet()
	for r := 0; r < n*int(k)*2; r++ {
		priv := Privileged(vals(cs), k)
		if priv.Len() != 1 {
			t.Fatalf("round %d: %d privileges", r, priv.Len())
		}
		seen.Add(priv.Min())
		e.Step()
	}
	if !seen.Equal(proc.Universe(n)) {
		t.Errorf("privilege visited only %v", seen)
	}
}

// TestSmallKCanFailToStabilize: with K < n the theorem's hypothesis is
// violated; some initial states never become legitimate (this documents
// why the modulus matters — compare the bounded-counter experiment E9).
func TestSmallKCanFailToStabilize(t *testing.T) {
	// n=4, K=2: exhaustively look for a non-stabilizing state.
	n, k := 4, uint64(2)
	foundBad := false
	for code := 0; code < 16; code++ {
		init := make([]uint64, n)
		c := code
		for i := range init {
			init[i] = uint64(c % 2)
			c /= 2
		}
		cs, _ := runRing(t, init, k, 200)
		if Privileged(vals(cs), k).Len() != 1 {
			foundBad = true
			break
		}
	}
	if !foundBad {
		t.Skip("synchronous K=2 ring stabilized from all 16 states; hypothesis violation not observable at this size")
	}
}

func TestMutualExclusionViolationReporting(t *testing.T) {
	// A scattered start violates the predicate in round 1.
	_, h := runRing(t, []uint64{0, 1, 2, 3}, 5, 3)
	err := core.Check(MutualExclusion{K: 5}, h, 1, 1, proc.NewSet())
	if err == nil {
		t.Fatal("scattered state should violate mutual exclusion")
	}
	if (MutualExclusion{K: 5}).Name() == "" {
		t.Error("empty name")
	}
}

func TestAccessorsAndCorrupt(t *testing.T) {
	p := New(1, 3, 4)
	if p.ID() != 1 || p.Val() != 0 {
		t.Error("accessors wrong")
	}
	if New(0, 3, 0).k != 2 {
		t.Error("modulus floor missing")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		p.Corrupt(rng)
		if p.Val() >= 4 {
			t.Fatal("corrupted counter out of ring")
		}
	}
	if s := p.Snapshot(); s.Clock != p.Val() {
		t.Error("snapshot mismatch")
	}
}
