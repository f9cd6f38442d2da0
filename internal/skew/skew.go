// Package skew demonstrates the adaptation the paper asserts in §3's
// opening sentence: "Both the protocol for round agreement and the
// 'compiler' for perfectly synchronous systems readily adapt to
// synchronous, but not perfectly synchronized systems."
//
// The imperfect synchrony is modeled as bounded delivery lag: a round-r
// broadcast reaches each receiver at the end of round r or round r+1, the
// choice made per (round, sender, receiver) by a round.Lag schedule
// attached to the one synchronous engine (round.Engine.SetLag). The lag is
// part of the environment, not a process failure — correct processes'
// messages may be late too.
//
// Two adaptations are implemented and verified:
//
//   - Round agreement (Figure 1) needs NO textual change: c := max(R)+1
//     ignores stale values, and a late-but-high clock simply takes one
//     extra round to propagate. Stabilization degrades from 1 round to
//     1 + lag = 2 rounds (tests pin both the sufficiency and the
//     necessity).
//
//   - The compiler (Figure 3) adapts by double-stepping: each protocol
//     round of Π spans a window of two engine rounds, so that every
//     window-opening broadcast arrives within the window regardless of
//     lag; the suspect rule accepts round tags from the whole window
//     {c−1, c} and is evaluated per window rather than per engine round.
//     Stabilization doubles along with the rounds.
//
//ftss:det window evaluation must be reproducible per seed
package skew

import (
	"ftss/internal/proc"
	"ftss/internal/sim/round"
)

// RandomLag delays each message independently with probability P, driven
// by a seed.
type RandomLag struct {
	P    float64
	Seed int64
}

var _ round.Lag = RandomLag{}

// Late implements round.Lag.
func (l RandomLag) Late(r uint64, from, to proc.ID) bool {
	x := uint64(l.Seed) ^ 0x51ab
	x ^= r * 0x9e3779b97f4a7c15
	x ^= uint64(int64(from)+1) * 0xbf58476d1ce4e5b9
	x ^= uint64(int64(to)+1) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x>>11)/float64(1<<53) < l.P
}
