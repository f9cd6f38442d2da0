package pool

import (
	"sync/atomic"
	"testing"
)

// TestRunOrderAndCoverage: every index is evaluated exactly once and its
// result lands at its own index, for worker counts below, inside and
// above the item count (run under -race: workers write disjoint slots).
func TestRunOrderAndCoverage(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 3, n + 5} {
		var calls [n]atomic.Int32
		got := Run(workers, n, func(i int) int {
			calls[i].Add(1)
			return i * i
		})
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i || calls[i].Load() != 1 {
				t.Errorf("workers=%d: out[%d] = %d after %d calls", workers, i, v, calls[i].Load())
			}
		}
	}
	if got := Run(4, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Errorf("n=0: %v", got)
	}
}
