package proc

import "testing"

// The in-place set operations are the coterie-maintenance hot path; the
// word-packed representation exists so that they, and ascending iteration
// by ForEach, never allocate at any width. Sorted returns a fresh slice,
// so it is exactly one allocation.

var allocWidths = []int{16, 64, 256, 1024}

// allocPair builds two overlapping sets of width n: every third and every
// second ID respectively.
func allocPair(n int) (Set, Set) {
	x, y := NewSet(), NewSet()
	for i := 0; i < n; i += 3 {
		x.Add(ID(i))
	}
	for i := 0; i < n; i += 2 {
		y.Add(ID(i))
	}
	return x, y
}

func TestSetHotPathsDoNotAllocate(t *testing.T) {
	for _, n := range allocWidths {
		x, y := allocPair(n)
		dst := x.Clone()
		if avg := testing.AllocsPerRun(200, func() { dst.AddAll(y) }); avg > 0 {
			t.Errorf("n=%d AddAll: %.1f allocs, ceiling 0", n, avg)
		}
		x.IntersectWith(y)
		if x.Len() == 0 {
			t.Fatalf("n=%d: empty intersection", n)
		}
		if avg := testing.AllocsPerRun(200, func() { x.IntersectWith(y) }); avg > 0 {
			t.Errorf("n=%d IntersectWith: %.1f allocs, ceiling 0", n, avg)
		}
		var sum ID
		if avg := testing.AllocsPerRun(200, func() { y.ForEach(func(id ID) { sum += id }) }); avg > 0 {
			t.Errorf("n=%d ForEach: %.1f allocs, ceiling 0", n, avg)
		}
		if sum == 0 {
			t.Fatalf("n=%d: ForEach visited nothing", n)
		}
	}
}

func TestSortedAllocatesOnce(t *testing.T) {
	for _, n := range allocWidths {
		s := Universe(n)
		var sum ID
		avg := testing.AllocsPerRun(200, func() {
			for _, id := range s.Sorted() {
				sum += id
			}
		})
		if want := ID(201 * n * (n - 1) / 2); sum != want {
			t.Fatalf("n=%d: Sorted summed to %d over 201 calls, want %d", n, sum, want)
		}
		if avg > 1 {
			t.Errorf("n=%d Sorted: %.1f allocs, ceiling 1", n, avg)
		}
	}
}
